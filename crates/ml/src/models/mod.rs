//! Regression model zoo (the paper's Table VI line-up).
//!
//! Every model implements [`Regressor`](crate::Regressor); the neural models
//! ([`Mlp`], [`Cnn1d`]) also implement
//! [`Differentiable`](crate::Differentiable) and can therefore drive the
//! ISOP+ gradient-descent stage.

mod boosting;
mod cnn;
mod forest;
mod linear;
mod mlp;
mod nn;
mod svr;
mod tree;

pub use boosting::{GradientBoosting, XgbRegressor};
pub use cnn::{Cnn1d, Cnn1dConfig};
pub use forest::RandomForest;
pub use linear::PolynomialRidge;
pub use mlp::{Mlp, MlpConfig};
pub use svr::LinearSvr;
pub use tree::{DecisionTree, TreeConfig};
