//! Tabular regression datasets: containers, splits, and standardization.

use crate::linalg::Matrix;
use crate::MlError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A tabular dataset of features `x` (`n x d`) and targets `y` (`n x m`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix, one sample per row.
    pub x: Matrix,
    /// Target matrix, one sample per row (multi-output supported).
    pub y: Matrix,
}

impl Dataset {
    /// Creates a dataset after checking row agreement.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when `x` and `y` row counts differ
    /// and [`MlError::EmptyDataset`] for zero samples.
    pub fn new(x: Matrix, y: Matrix) -> Result<Self, MlError> {
        if x.rows() != y.rows() {
            return Err(MlError::ShapeMismatch {
                expected: x.rows(),
                got: y.rows(),
            });
        }
        if x.rows() == 0 {
            return Err(MlError::EmptyDataset);
        }
        Ok(Self { x, y })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// `true` when the dataset holds no samples (unreachable through
    /// [`Dataset::new`], but required by convention next to `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Number of target outputs.
    pub fn n_outputs(&self) -> usize {
        self.y.cols()
    }

    /// Returns a dataset containing the rows at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut x = Matrix::zeros(indices.len(), self.n_features());
        let mut y = Matrix::zeros(indices.len(), self.n_outputs());
        for (i, &idx) in indices.iter().enumerate() {
            x.row_mut(i).copy_from_slice(self.x.row(idx));
            y.row_mut(i).copy_from_slice(self.y.row(idx));
        }
        Dataset { x, y }
    }

    /// Deterministic shuffled train/test split: `test_fraction` of the rows
    /// (rounded down, at least one row in each side when possible) go to the
    /// test set.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is outside `(0, 1)`.
    pub fn train_test_split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0, 1)"
        );
        let n = self.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_test = ((n as f64 * test_fraction) as usize).clamp(1, n - 1);
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.subset(train_idx), self.subset(test_idx))
    }
}

/// Per-column standardizer (`z = (x - mean) / std`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fits a scaler to the columns of `m`. Columns with zero variance get a
    /// unit scale so transforms stay finite.
    pub fn fit(m: &Matrix) -> Self {
        let (n, d) = (m.rows(), m.cols());
        let mut means = vec![0.0; d];
        let mut stds = vec![0.0; d];
        for r in 0..n {
            for (c, v) in m.row(r).iter().enumerate() {
                means[c] += v;
            }
        }
        for mean in &mut means {
            *mean /= n as f64;
        }
        for r in 0..n {
            for (c, v) in m.row(r).iter().enumerate() {
                let dv = v - means[c];
                stds[c] += dv * dv;
            }
        }
        for s in &mut stds {
            *s = (*s / n as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Applies the transform, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted one.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.means.len(), "scaler width mismatch");
        let mut out = m.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v = (*v - self.means[c]) / self.stds[c];
            }
        }
        out
    }

    /// Transforms a single row in place.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fitted width.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "scaler width mismatch");
        for (c, v) in row.iter_mut().enumerate() {
            *v = (*v - self.means[c]) / self.stds[c];
        }
    }

    /// Inverts the transform on a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted one.
    pub fn inverse_transform(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.means.len(), "scaler width mismatch");
        let mut out = m.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v = *v * self.stds[c] + self.means[c];
            }
        }
        out
    }

    /// Per-column standard deviations (scale factors).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Matrix::from_rows(
            &(0..10)
                .map(|i| vec![i as f64, 2.0 * i as f64])
                .collect::<Vec<_>>(),
        );
        let y = Matrix::column(&(0..10).map(|i| i as f64).collect::<Vec<_>>());
        Dataset::new(x, y).expect("valid")
    }

    #[test]
    fn new_checks_rows() {
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(4, 1);
        assert!(matches!(
            Dataset::new(x, y),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn new_rejects_empty() {
        assert!(matches!(
            Dataset::new(Matrix::zeros(0, 2), Matrix::zeros(0, 1)),
            Err(MlError::EmptyDataset)
        ));
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy();
        let (train, test) = d.train_test_split(0.2, 7);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 2);
        // No sample duplicated: recombine and compare multisets of x[0].
        let mut all: Vec<f64> = train
            .x
            .col_vec(0)
            .into_iter()
            .chain(test.x.col_vec(0))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy();
        let (a, _) = d.train_test_split(0.3, 42);
        let (b, _) = d.train_test_split(0.3, 42);
        assert_eq!(a, b);
        let (c, _) = d.train_test_split(0.3, 43);
        assert_ne!(a, c, "different seeds should shuffle differently");
    }

    #[test]
    fn subset_picks_rows() {
        let d = toy();
        let s = d.subset(&[3, 5]);
        assert_eq!(s.x.row(0), &[3.0, 6.0]);
        assert_eq!(s.y[(1, 0)], 5.0);
    }

    #[test]
    fn scaler_standardizes() {
        let d = toy();
        let sc = Scaler::fit(&d.x);
        let t = sc.transform(&d.x);
        for c in 0..t.cols() {
            let col = t.col_vec(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_roundtrip() {
        let d = toy();
        let sc = Scaler::fit(&d.x);
        let back = sc.inverse_transform(&sc.transform(&d.x));
        for r in 0..d.x.rows() {
            for c in 0..d.x.cols() {
                assert!((back[(r, c)] - d.x[(r, c)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn scaler_constant_column_stays_finite() {
        let m = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let sc = Scaler::fit(&m);
        let t = sc.transform(&m);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
    }
}
