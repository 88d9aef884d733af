//! Dense row-major matrix arithmetic.
//!
//! A deliberately small linear-algebra kernel: the row-major container the
//! models exchange data in, plus what the ridge and objective code needs
//! (one product kernel, a transpose, a row-vector product, Cholesky
//! solves), with dimension checks that panic early with a clear message
//! rather than propagating NaNs. The neural networks run their own
//! batch-major dense kernels and do not multiply `Matrix` values.
//!
//! ```
//! use isop_ml::linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
//! assert_eq!(a.matmul(&b), Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]));
//! ```

use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// A single-column matrix from a slice.
    pub fn column(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
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

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_vec(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self * rhs`: each output row accumulates the rows
    /// of `rhs` weighted by its row of `self`, in ascending order (an axpy
    /// per term, so the inner loop streams both operands contiguously).
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let m = rhs.cols;
        let mut out = Matrix::zeros(self.rows, m);
        for (a_row, out_row) in self
            .data
            .chunks_exact(self.cols.max(1))
            .zip(out.data.chunks_exact_mut(m.max(1)))
        {
            for (&a, rhs_row) in a_row.iter().zip(rhs.data.chunks_exact(m.max(1))) {
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Row-vector product `v^T * self`: the rows of `self` weighted by `v`,
    /// accumulated in ascending row order. Rows whose weight is exactly
    /// zero are skipped. This is the vector–Jacobian contraction of the
    /// gradient stage, with one fixed summation order.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vecmat length mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (o, m) in out.iter_mut().zip(self.row(r)) {
                *o += w * m;
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Solves `A x = b` for symmetric positive-definite `A = self` via
    /// Cholesky decomposition, returning `x` (same shape as `b`).
    ///
    /// # Errors
    ///
    /// Returns `None` if the matrix is not positive definite (within a small
    /// tolerance), e.g. when a ridge term is missing from a singular normal
    /// equation.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b.rows() != self.rows()`.
    pub fn cholesky_solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        assert_eq!(b.rows, self.rows, "rhs row mismatch");
        let n = self.rows;
        // Decompose A = L L^T.
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 1e-12 {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Solve L y = b, then L^T x = y, column by column.
        let mut x = Matrix::zeros(n, b.cols);
        for c in 0..b.cols {
            let mut y = vec![0.0f64; n];
            for i in 0..n {
                let mut sum = b[(i, c)];
                for k in 0..i {
                    sum -= l[i * n + k] * y[k];
                }
                y[i] = sum / l[i * n + i];
            }
            for i in (0..n).rev() {
                let mut sum = y[i];
                for k in i + 1..n {
                    sum -= l[k * n + i] * x[(k, c)];
                }
                x[(i, c)] = sum / l[i * n + i];
            }
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn vecmat_is_a_one_row_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = [0.5, 0.0, -2.0];
        let row = Matrix::from_rows(&[v.to_vec()]).matmul(&a);
        assert_eq!(a.vecmat(&v), row.row(0).to_vec());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn transpose_product_rule() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.5, -1.0], vec![2.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![3.0, -1.0, 1.0]]);
        // (AB)^T == B^T A^T
        assert_eq!(
            a.matmul(&b).transpose(),
            b.transpose().matmul(&a.transpose())
        );
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = M^T M + I is SPD.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut a = m.transpose().matmul(&m);
        for i in 0..2 {
            a[(i, i)] += 1.0;
        }
        let b = Matrix::column(&[1.0, -1.0]);
        let x = a.cholesky_solve(&b).expect("SPD");
        let ax = a.matmul(&x);
        let residual = (0..2)
            .map(|i| (ax[(i, 0)] - b[(i, 0)]).abs())
            .fold(0.0, f64::max);
        assert!(residual < 1e-9, "residual {residual}");
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(a.cholesky_solve(&Matrix::column(&[1.0, 1.0])).is_none());
    }

    #[test]
    fn rows_and_cols_access() {
        let mut a = Matrix::zeros(2, 3);
        a.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(a.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(a.col_vec(2), vec![0.0, 9.0]);
    }

    #[test]
    fn column_constructor() {
        let c = Matrix::column(&[1.0, 2.0, 3.0]);
        assert_eq!((c.rows(), c.cols()), (3, 1));
        assert_eq!(c[(2, 0)], 3.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
