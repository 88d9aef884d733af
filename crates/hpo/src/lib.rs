//! # isop-hpo — hyperparameter-optimization substrate
//!
//! The search algorithms the ISOP+ paper builds on or compares against, all
//! implemented from scratch:
//!
//! * [`harmonica`] — the spectral HPO method of Hazan, Klivans & Yuan
//!   (ICLR'18) over `{-1, +1}^n`: sample, fit a **sparse low-degree Fourier
//!   polynomial** via Lasso ([`lasso`]), fix the most significant bits,
//!   shrink the space, repeat. This powers ISOP+'s global stage.
//! * [`hyperband`] — bandit-based successive halving (Li et al., JMLR'17),
//!   used by ISOP+ to pick candidates out of the reduced space.
//! * [`sa`] — the paper's own simulated-annealing baseline (linear
//!   temperature decay, `exp(delta / T)` acceptance).
//! * [`tpe`] — a tree-structured Parzen estimator in the style of Optuna,
//!   the paper's Bayesian-optimization baseline (sequential by design, which
//!   is exactly the runtime handicap Tables IV/V exhibit).
//!
//! Searchers operate over two space views: a binary cube
//! ([`space::BinarySpace`], Harmonica/SA) and a per-parameter discrete space
//! ([`space::DiscreteSpace`], TPE). The `isop` core crate maps
//! stack-up parameter spaces onto both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod harmonica;
pub mod hyperband;
pub mod lasso;
pub mod objective;
pub mod order;
pub mod sa;
pub mod space;
pub mod tpe;

pub use budget::Budget;
pub use objective::{BinaryObjective, DiscreteObjective, Evaluation};
pub use order::nan_last;
pub use space::{BinarySpace, DiscreteSpace};
