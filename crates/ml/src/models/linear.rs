//! Polynomial ridge regression (the paper's "PLR").
//!
//! Expands features to all monomials up to a configurable degree (degree 2 by
//! default: bias, linear, squares, and pairwise products) and solves the
//! ridge-regularized normal equations with a Cholesky factorization.

use crate::dataset::{Dataset, Scaler};
use crate::linalg::Matrix;
use crate::{MlError, Regressor};
use serde::{Deserialize, Serialize};

/// Polynomial ridge regressor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolynomialRidge {
    degree: usize,
    lambda: f64,
    scaler: Option<Scaler>,
    /// Coefficients, `n_poly_features x n_outputs`.
    weights: Option<Matrix>,
    n_features: usize,
}

impl PolynomialRidge {
    /// Creates a model of polynomial `degree` (1 or 2) with ridge strength
    /// `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `degree` is 1 or 2 and `lambda >= 0`.
    pub fn new(degree: usize, lambda: f64) -> Self {
        assert!((1..=2).contains(&degree), "degree must be 1 or 2");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        Self {
            degree,
            lambda,
            scaler: None,
            weights: None,
            n_features: 0,
        }
    }

    /// The paper's PLR configuration: degree 2 with light regularization.
    pub fn paper_default() -> Self {
        Self::new(2, 1e-6)
    }

    fn expand_row(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.push(1.0);
        out.extend_from_slice(row);
        if self.degree >= 2 {
            for i in 0..row.len() {
                for j in i..row.len() {
                    out.push(row[i] * row[j]);
                }
            }
        }
    }

    fn expand(&self, x: &Matrix) -> Matrix {
        let mut scratch = Vec::new();
        self.expand_row(x.row(0), &mut scratch);
        let width = scratch.len();
        let mut out = Matrix::zeros(x.rows(), width);
        for r in 0..x.rows() {
            self.expand_row(x.row(r), &mut scratch);
            out.row_mut(r).copy_from_slice(&scratch);
        }
        out
    }
}

impl Regressor for PolynomialRidge {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.n_features = data.n_features();
        let scaler = Scaler::fit(&data.x);
        let xs = scaler.transform(&data.x);
        self.scaler = Some(scaler);
        let phi = self.expand(&xs);
        // Normal equations with ridge: (Phi^T Phi + lambda I) W = Phi^T Y.
        let pt = phi.transpose();
        let mut gram = pt.matmul(&phi);
        for i in 0..gram.rows() {
            gram[(i, i)] += self.lambda.max(1e-10);
        }
        let rhs = pt.matmul(&data.y);
        let w = gram.cholesky_solve(&rhs).ok_or(MlError::Diverged)?;
        if !w.as_slice().iter().all(|v| v.is_finite()) {
            return Err(MlError::Diverged);
        }
        self.weights = Some(w);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        if x.cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: x.cols(),
            });
        }
        let xs = self.scaler.as_ref().ok_or(MlError::NotFitted)?.transform(x);
        Ok(self.expand(&xs).matmul(w))
    }

    fn name(&self) -> &'static str {
        "PLR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn dataset(f: impl Fn(f64, f64) -> f64) -> Dataset {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f64 / 10.0 - 1.0, j as f64 / 10.0 - 1.0);
                rows.push(vec![a, b]);
                ys.push(f(a, b));
            }
        }
        Dataset::new(Matrix::from_rows(&rows), Matrix::column(&ys)).unwrap()
    }

    #[test]
    fn recovers_linear_function() {
        let d = dataset(|a, b| 3.0 * a - 2.0 * b + 1.0);
        let mut m = PolynomialRidge::new(1, 1e-9);
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.9999);
    }

    #[test]
    fn degree_two_captures_products() {
        let d = dataset(|a, b| a * b + a * a - b);
        let mut m = PolynomialRidge::new(2, 1e-9);
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.9999);
    }

    #[test]
    fn degree_one_cannot_capture_products() {
        let d = dataset(|a, b| a * b);
        let mut m = PolynomialRidge::new(1, 1e-9);
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) < 0.5);
    }

    #[test]
    fn multi_output_fit() {
        let x = Matrix::from_rows(&(0..50).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>());
        let y = Matrix::from_rows(
            &(0..50)
                .map(|i| {
                    let v = i as f64 / 10.0;
                    vec![2.0 * v, -v + 1.0]
                })
                .collect::<Vec<_>>(),
        );
        let d = Dataset::new(x, y).unwrap();
        let mut m = PolynomialRidge::new(1, 1e-9);
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert_eq!(pred.cols(), 2);
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.999);
        assert!(r2(&d.y.col_vec(1), &pred.col_vec(1)) > 0.999);
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = PolynomialRidge::paper_default();
        assert_eq!(m.predict(&Matrix::zeros(1, 2)), Err(MlError::NotFitted));
    }

    #[test]
    fn wrong_width_errors() {
        let d = dataset(|a, _| a);
        let mut m = PolynomialRidge::new(1, 1e-6);
        m.fit(&d).unwrap();
        assert!(matches!(
            m.predict(&Matrix::zeros(1, 5)),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let d = dataset(|a, b| 3.0 * a - 2.0 * b);
        let mut light = PolynomialRidge::new(1, 1e-9);
        let mut heavy = PolynomialRidge::new(1, 1e6);
        light.fit(&d).unwrap();
        heavy.fit(&d).unwrap();
        let pl = light.predict(&d.x).unwrap();
        let ph = heavy.predict(&d.x).unwrap();
        let norm = |m: &Matrix| m.as_slice().iter().map(|v| v.abs()).sum::<f64>();
        assert!(
            norm(&ph) < norm(&pl) * 0.1,
            "heavy ridge must shrink output"
        );
    }
}
