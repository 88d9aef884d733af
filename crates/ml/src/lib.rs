//! # isop-ml — from-scratch tabular regression for surrogate modelling
//!
//! The machine-learning substrate of the ISOP+ reproduction. Implements, in
//! pure Rust with no numerical dependencies, every regressor the paper's
//! Table VI compares:
//!
//! | Paper name | Type |
//! |---|---|
//! | DTR | [`models::DecisionTree`] — CART regression tree |
//! | RFR | [`models::RandomForest`] — bagged trees |
//! | GBR | [`models::GradientBoosting`] — first-order boosted trees |
//! | XGBoost | [`models::XgbRegressor`] — second-order regularized boosting |
//! | PLR | [`models::PolynomialRidge`] — degree-2 ridge regression |
//! | SVR | [`models::LinearSvr`] — epsilon-insensitive SGD |
//! | MLPR | [`models::Mlp`] — multilayer perceptron |
//! | 1D-CNN | [`models::Cnn1d`] — FC-expand + 1-D convolutions |
//!
//! The neural models additionally expose **gradients with respect to their
//! inputs** ([`Differentiable`]), which the ISOP+ local-exploration stage
//! descends with [`optim::Adam`].
//!
//! ```
//! use isop_ml::dataset::Dataset;
//! use isop_ml::linalg::Matrix;
//! use isop_ml::models::PolynomialRidge;
//! use isop_ml::Regressor;
//!
//! # fn main() -> Result<(), isop_ml::MlError> {
//! // y = x0 + 2 x1.
//! let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
//! let y = Matrix::column(&[0.0, 1.0, 2.0, 3.0]);
//! let data = Dataset::new(x.clone(), y)?;
//! let mut model = PolynomialRidge::new(1, 1e-6);
//! model.fit(&data)?;
//! let pred = model.predict(&x)?;
//! assert!((pred[(3, 0)] - 3.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod linalg;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod registry;
pub mod train;

use dataset::Dataset;
use linalg::Matrix;
use std::fmt;

/// Errors produced by dataset handling and model training/inference.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// Row/column counts disagree.
    ShapeMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        got: usize,
    },
    /// A dataset with zero samples was supplied.
    EmptyDataset,
    /// `predict` (or `input_jacobian`) was called before `fit`.
    NotFitted,
    /// Training diverged or produced non-finite parameters.
    Diverged,
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            MlError::EmptyDataset => write!(f, "dataset contains no samples"),
            MlError::NotFitted => write!(f, "model used before fitting"),
            MlError::Diverged => write!(f, "training diverged to non-finite parameters"),
        }
    }
}

impl std::error::Error for MlError {}

/// A multi-output tabular regressor.
///
/// All models accept an `n x d` feature matrix and an `n x m` target matrix;
/// single-output models are the `m = 1` special case.
pub trait Regressor: Send + Sync {
    /// Trains on `data`, replacing any previous fit.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] on inconsistent shapes or divergence.
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError>;

    /// Trains on `data` under an explicit [`train::TrainContext`] (thread
    /// knob + telemetry). The default implementation ignores the context
    /// and calls [`Regressor::fit`]; models with a data-parallel training
    /// path override this instead and have `fit` delegate back with the
    /// serial default. Fitted parameters are bit-identical at every
    /// `ctx.parallelism.threads` width.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] on inconsistent shapes or divergence.
    fn fit_with(&mut self, data: &Dataset, ctx: &train::TrainContext) -> Result<(), MlError> {
        let _ = ctx;
        self.fit(data)
    }

    /// Predicts targets for each row of `x` (`n x m` output).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before `fit`, or
    /// [`MlError::ShapeMismatch`] on a feature-width mismatch.
    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError>;

    /// Short model name for tables (e.g. `"XGBoost"`).
    fn name(&self) -> &'static str;
}

/// A regressor that can differentiate its outputs with respect to its
/// **inputs** — the property the ISOP+ gradient-descent stage requires.
///
/// Tree ensembles are piecewise-constant and deliberately do not implement
/// this trait, mirroring the paper's remark that `MLP_XGB` cannot be paired
/// with the gradient-descent stage.
pub trait Differentiable: Regressor {
    /// Jacobian `d y / d x` at a single input row: shape `m x d`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before `fit`, or
    /// [`MlError::ShapeMismatch`] on a feature-width mismatch.
    fn input_jacobian(&self, x: &[f64]) -> Result<Matrix, MlError>;

    /// Prediction at one input row plus the vector–Jacobian product
    /// `(d y / d x)^T · dy`, where `dy = cotangent(y)` is computed from
    /// that prediction (one entry per output). Returns `(y, grad_x)`; `y`
    /// is bit-identical to [`predict_row`] at `x`. One forward pass and one
    /// input-only backward pass, with no `m x d` Jacobian.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before `fit`, or
    /// [`MlError::ShapeMismatch`] on a feature-width mismatch.
    fn value_and_vjp(
        &self,
        x: &[f64],
        cotangent: &dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError>;
}

/// Convenience: predicts a single row, returning the output vector.
///
/// # Errors
///
/// Propagates the model's [`MlError`].
pub fn predict_row(model: &dyn Regressor, row: &[f64]) -> Result<Vec<f64>, MlError> {
    let x = Matrix::from_rows(&[row.to_vec()]);
    let out = model.predict(&x)?;
    Ok(out.row(0).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = MlError::ShapeMismatch {
            expected: 3,
            got: 5,
        };
        assert_eq!(e.to_string(), "shape mismatch: expected 3, got 5");
        assert_eq!(MlError::NotFitted.to_string(), "model used before fitting");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
