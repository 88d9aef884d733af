//! Dense row-major matrix arithmetic.
//!
//! A deliberately small linear-algebra kernel: exactly the operations the
//! regression models need (products, transposes, Cholesky solves), with
//! dimension checks that panic early with a clear message rather than
//! propagating NaNs.
//!
//! ```
//! use isop_ml::linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
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

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data length mismatch");
        Self { rows, cols, data }
    }

    /// A single-column matrix from a slice.
    pub fn column(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
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

    /// Matrix product `self * rhs`.
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
        // Same shape-based dispatch as `matmul_transposed`, picking the
        // layout each kernel wants without a redundant transpose. Callers
        // that already hold the RHS in transposed layout (e.g. dense layers
        // storing `W` as `out x in`) should call `matmul_transposed`
        // directly.
        if self.rows >= AXPY_MIN_ROWS {
            self.kernel_axpy(rhs)
        } else {
            self.kernel_dot(&rhs.transpose())
        }
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

    /// Matrix product `self * rhs_t^T`, with the right operand supplied
    /// already transposed (`rhs_t` is `m x k` for a `n x k` left operand).
    ///
    /// Bit-identical to `self.matmul(&rhs_t.transpose())` — both entry
    /// points dispatch on the same row count, so the same kernel (and the
    /// same per-element summation tree) runs either way. For narrow left
    /// operands (per-row surrogate inference, Jacobian chains) this skips
    /// the transpose allocation that would otherwise dominate the call.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_transposed(&self, rhs_t: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs_t.cols,
            "matmul_transposed dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs_t.rows, rhs_t.cols
        );
        if self.rows >= AXPY_MIN_ROWS {
            self.kernel_axpy(&rhs_t.transpose())
        } else {
            self.kernel_dot(rhs_t)
        }
    }

    /// Wide-batch kernel: stream the row-major right operand and accumulate
    /// output rows vertically (axpy). No horizontal reductions, so the
    /// inner loop vectorises into pure element-wise multiply-adds — the
    /// fastest layout once there are enough left rows to amortise holding
    /// `rhs` row-major.
    fn kernel_axpy(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.kernel_axpy_into(rhs, &mut out);
        out
    }

    /// [`Matrix::kernel_axpy`] into a pre-shaped, zeroed output.
    fn kernel_axpy_into(&self, rhs: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(self.cols, rhs.rows);
        debug_assert_eq!((out.rows, out.cols), (self.rows, rhs.cols));
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        for i in 0..n {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * m..(i + 1) * m];
            for (l, &a) in a_row.iter().enumerate() {
                let rhs_row = &rhs.data[l * m..(l + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Narrow-batch kernel over a pre-transposed right operand: every
    /// output element is a dot of two contiguous slices, and the output is
    /// tiled so a block of `rhs_t` rows stays hot in cache across a block
    /// of `self` rows. Each element is an independent dot with a fixed
    /// summation tree, so the result does not depend on the tiling.
    fn kernel_dot(&self, rhs_t: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs_t.rows);
        self.kernel_dot_into(rhs_t, &mut out);
        out
    }

    /// [`Matrix::kernel_dot`] into a pre-shaped, zeroed output.
    fn kernel_dot_into(&self, rhs_t: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(self.cols, rhs_t.cols);
        debug_assert_eq!((out.rows, out.cols), (self.rows, rhs_t.rows));
        let (n, k, m) = (self.rows, self.cols, rhs_t.rows);
        if k == 0 {
            return; // empty inner dimension: every dot is 0.0
        }
        const BLOCK: usize = 32;
        for i0 in (0..n).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(n);
            for j0 in (0..m).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(m);
                for i in i0..i1 {
                    let a_row = &self.data[i * k..(i + 1) * k];
                    let out_row = &mut out.data[i * m..(i + 1) * m];
                    for (o, rt_row) in out_row[j0..j1]
                        .iter_mut()
                        .zip(rhs_t.data[j0 * k..j1 * k].chunks_exact(k))
                    {
                        *o = dot_unrolled(a_row, rt_row);
                    }
                }
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-provided buffer (resized in
    /// place), for loops that re-transpose the same weights every step.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|v| v * k).collect(),
        )
    }

    /// Elementwise `self += rhs` without allocating. Element order is
    /// left-to-right, the same as [`Matrix::add`], so an in-place
    /// accumulation chain produces the exact bits of the allocating one.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add_in_place(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Scales every entry by `k` in place (allocation-free [`Matrix::scale`]).
    pub fn scale_in_place(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Resizes to `rows x cols` reusing the existing allocation, with every
    /// entry reset to zero. The workhorse of reusable scratch buffers.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`Matrix::matmul`] writing into a caller-provided output buffer
    /// (resized in place; its previous shape and contents are irrelevant).
    /// Bit-identical to `matmul` — the same kernels run, they just write
    /// into `out` instead of a fresh allocation.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset(self.rows, rhs.cols);
        if self.rows >= AXPY_MIN_ROWS {
            self.kernel_axpy_into(rhs, out);
        } else {
            self.kernel_dot_into(&rhs.transpose(), out);
        }
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

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
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

/// Left-operand row count at which `matmul` switches from the dot kernel
/// (zero-copy over a transposed RHS, best for per-row inference) to the
/// axpy kernel (vertical accumulation, best for wide training/inference
/// batches). Dispatch is purely shape-driven, so identical operands always
/// take identical paths — determinism does not depend on the threshold.
const AXPY_MIN_ROWS: usize = 16;

/// Four-accumulator dot product over equal-length slices: breaks the serial
/// add dependency so the loop keeps multiple FMAs in flight. The summation
/// tree is fixed — `(a0 + a1) + (a2 + a3) + tail` — and elementwise products
/// commute bitwise, so `dot_unrolled(u, v) == dot_unrolled(v, u)` exactly
/// (which is what keeps `(AB)^T == B^T A^T` bit-identical in `matmul`).
#[inline]
fn dot_unrolled(u: &[f64], v: &[f64]) -> f64 {
    // `chunks_exact` hands the compiler fixed-size blocks with no bounds
    // checks, so the four independent accumulators pack into SIMD lanes.
    let mut acc = [0.0f64; 4];
    let mut uc = u.chunks_exact(4);
    let mut vc = v.chunks_exact(4);
    for (a4, b4) in (&mut uc).zip(&mut vc) {
        acc[0] += a4[0] * b4[0];
        acc[1] += a4[1] * b4[1];
        acc[2] += a4[2] * b4[2];
        acc[3] += a4[3] * b4[3];
    }
    let mut tail = 0.0;
    for (a, b) in uc.remainder().iter().zip(vc.remainder()) {
        tail += a * b;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

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
        let a = m.transpose().matmul(&m).add(&Matrix::identity(2));
        let b = Matrix::column(&[1.0, -1.0]);
        let x = a.cholesky_solve(&b).expect("SPD");
        let residual = a.matmul(&x).add(&b.scale(-1.0)).frobenius_norm();
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
    fn scale_and_add() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let b = a.scale(2.0).add(&a);
        assert_eq!(b, Matrix::from_rows(&[vec![3.0, -6.0]]));
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
