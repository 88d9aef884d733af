//! Boosted tree ensembles: first-order gradient boosting (the paper's "GBR")
//! and a second-order regularized variant in the style of XGBoost.
//!
//! Both fit shallow multi-output trees stage-wise to the residuals of a
//! squared loss. The XGBoost-style model differs in its split criterion
//! (second-order gain with L2 leaf regularization `lambda` and split penalty
//! `gamma`) and its leaf values (`-G / (H + lambda)`), which is exactly the
//! squared-loss specialization of Chen & Guestrin's objective.

use super::tree::{build_tree, Node, TreeConfig};
use crate::dataset::Dataset;
use crate::linalg::Matrix;
use crate::train::{TrainContext, BOOST_ROW_CHUNK};
use crate::{MlError, Regressor};
use isop_exec::par_map_mut;
use isop_telemetry::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Fills `out[r][c] = f(y[r][c], pred[r][c])` over fixed row chunks on up
/// to `threads` workers. Writes are disjoint (no floating-point reduction
/// happens), so any width produces the same bits. Returns the chunk count.
fn fill_gradients(
    threads: usize,
    y: &Matrix,
    pred: &Matrix,
    out: &mut Matrix,
    f: impl Fn(f64, f64) -> f64 + Sync,
) -> u64 {
    let chunk_len = BOOST_ROW_CHUNK * out.cols();
    let mut views: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(chunk_len).collect();
    let n_chunks = views.len() as u64;
    par_map_mut(threads, &mut views, |ci, chunk| {
        let start = ci * chunk_len;
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = f(y.as_slice()[start + k], pred.as_slice()[start + k]);
        }
    });
    n_chunks
}

/// Applies one boosted stage in place over fixed row chunks:
/// `pred[r] += lr * predict(x[r])`. Row-disjoint writes, width-independent
/// bits. Returns the chunk count.
fn apply_stage(
    threads: usize,
    x: &Matrix,
    pred: &mut Matrix,
    lr: f64,
    predict: impl Fn(&[f64], &mut [f64]) + Sync,
) -> u64 {
    let m = pred.cols();
    let chunk_len = BOOST_ROW_CHUNK * m;
    let mut views: Vec<&mut [f64]> = pred.as_mut_slice().chunks_mut(chunk_len).collect();
    let n_chunks = views.len() as u64;
    par_map_mut(threads, &mut views, |ci, chunk| {
        let mut scratch = vec![0.0; m];
        let base_row = ci * BOOST_ROW_CHUNK;
        for (local, row) in chunk.chunks_mut(m).enumerate() {
            predict(x.row(base_row + local), &mut scratch);
            for (p, s) in row.iter_mut().zip(&scratch) {
                *p += lr * s;
            }
        }
    });
    n_chunks
}

/// First-order gradient-boosted trees (GBR).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoosting {
    n_stages: usize,
    learning_rate: f64,
    cfg: TreeConfig,
    seed: u64,
    base: Vec<f64>,
    stages: Vec<Node>,
    n_features: usize,
    n_outputs: usize,
}

impl GradientBoosting {
    /// Creates a boosted ensemble of `n_stages` trees with shrinkage
    /// `learning_rate`, per-stage tree shape `cfg`, and a deterministic
    /// `seed` for the stage trees' feature-subsampling RNG (only consumed
    /// when `cfg.max_features` is set).
    ///
    /// # Panics
    ///
    /// Panics if `n_stages == 0` or `learning_rate` is outside `(0, 1]`.
    pub fn new(n_stages: usize, learning_rate: f64, cfg: TreeConfig, seed: u64) -> Self {
        assert!(n_stages > 0, "need at least one boosting stage");
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        Self {
            n_stages,
            learning_rate,
            cfg,
            seed,
            base: Vec::new(),
            stages: Vec::new(),
            n_features: 0,
            n_outputs: 0,
        }
    }

    /// The paper's GBR baseline: 100 depth-3 trees, shrinkage 0.1.
    pub fn paper_default() -> Self {
        Self::new(
            100,
            0.1,
            TreeConfig {
                max_depth: 3,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None,
            },
            0,
        )
    }

    /// Number of fitted stages.
    pub fn n_fitted_stages(&self) -> usize {
        self.stages.len()
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fit_with(data, &TrainContext::serial())
    }

    fn fit_with(&mut self, data: &Dataset, ctx: &TrainContext) -> Result<(), MlError> {
        let _span = isop_telemetry::span!(ctx.telemetry, "ml.fit.gbr");
        self.n_features = data.n_features();
        self.n_outputs = data.n_outputs();
        let n = data.len();
        let m = self.n_outputs;
        let threads = ctx.parallelism.threads;

        // Base prediction: per-output mean.
        self.base = (0..m)
            .map(|c| data.y.col_vec(c).iter().sum::<f64>() / n as f64)
            .collect();

        let mut pred = Matrix::zeros(n, m);
        for r in 0..n {
            pred.row_mut(r).copy_from_slice(&self.base);
        }

        // Stages are inherently sequential (each fits the previous
        // residual), so parallelism lives *inside* a stage: the residual
        // fill and prediction update fan out over fixed row chunks, and
        // the tree's split search fans out per feature on large nodes.
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.stages = Vec::with_capacity(self.n_stages);
        let mut resid = Matrix::zeros(n, m);
        for _ in 0..self.n_stages {
            // Residuals are the negative gradient of the squared loss.
            let mut chunks = fill_gradients(threads, &data.y, &pred, &mut resid, |y, p| y - p);
            let mut idx: Vec<usize> = (0..n).collect();
            let tree = build_tree(
                &data.x,
                &resid,
                &mut idx,
                0,
                &self.cfg,
                &mut rng,
                ctx.parallelism,
            );
            chunks += apply_stage(
                threads,
                &data.x,
                &mut pred,
                self.learning_rate,
                |row, out| tree.predict_into(row, out),
            );
            ctx.telemetry.add(Counter::TrainChunks, chunks);
            self.stages.push(tree);
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if self.stages.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: x.cols(),
            });
        }
        let mut out = Matrix::zeros(x.rows(), self.n_outputs);
        let mut scratch = vec![0.0; self.n_outputs];
        for r in 0..x.rows() {
            out.row_mut(r).copy_from_slice(&self.base);
            for tree in &self.stages {
                tree.predict_into(x.row(r), &mut scratch);
                for (o, s) in out.row_mut(r).iter_mut().zip(&scratch) {
                    *o += self.learning_rate * s;
                }
            }
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "GBR"
    }
}

// ---------------------------------------------------------------------------
// XGBoost-style second-order boosting.
// ---------------------------------------------------------------------------

/// One node of an XGBoost-style tree with regularized leaf weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum XgbNode {
    Leaf {
        value: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<XgbNode>,
        right: Box<XgbNode>,
    },
}

impl XgbNode {
    fn predict_into(&self, row: &[f64], out: &mut [f64]) {
        match self {
            XgbNode::Leaf { value } => out.copy_from_slice(value),
            XgbNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row[*feature] <= *threshold {
                    left.predict_into(row, out)
                } else {
                    right.predict_into(row, out)
                }
            }
        }
    }
}

/// Second-order regularized boosted trees (XGBoost-style).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XgbRegressor {
    n_stages: usize,
    learning_rate: f64,
    max_depth: usize,
    min_child_weight: f64,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum gain to accept a split.
    pub gamma: f64,
    base: Vec<f64>,
    stages: Vec<XgbNode>,
    n_features: usize,
    n_outputs: usize,
}

impl XgbRegressor {
    /// Creates an XGBoost-style regressor.
    ///
    /// # Panics
    ///
    /// Panics on `n_stages == 0`, a learning rate outside `(0, 1]`, or
    /// negative regularizers.
    pub fn new(
        n_stages: usize,
        learning_rate: f64,
        max_depth: usize,
        lambda: f64,
        gamma: f64,
    ) -> Self {
        assert!(n_stages > 0);
        assert!(learning_rate > 0.0 && learning_rate <= 1.0);
        assert!(lambda >= 0.0 && gamma >= 0.0);
        Self {
            n_stages,
            learning_rate,
            max_depth,
            min_child_weight: 1.0,
            lambda,
            gamma,
            base: Vec::new(),
            stages: Vec::new(),
            n_features: 0,
            n_outputs: 0,
        }
    }

    /// The paper's XGBoost baseline: 200 depth-6 trees, eta 0.1, lambda 1.
    pub fn paper_default() -> Self {
        Self::new(200, 0.1, 6, 1.0, 0.0)
    }

    /// Best split candidate for one feature: `(feature, threshold, gain)`.
    /// Sorts a fresh copy of `idx` so the result is a pure function of
    /// `(x, g, idx, f)` and can be computed on any worker (see
    /// `best_split_for_feature` in `tree.rs` for why a shared sort buffer
    /// would break that).
    #[allow(clippy::too_many_arguments)]
    fn best_xgb_split(
        &self,
        x: &Matrix,
        g: &Matrix,
        idx: &[usize],
        f: usize,
        g_total: &[f64],
        h_total: f64,
        parent_score: f64,
    ) -> Option<(usize, f64, f64)> {
        let m = g.cols();
        let score = |gs: &[f64], h: f64| -> f64 {
            gs.iter().map(|gv| gv * gv / (h + self.lambda)).sum::<f64>()
        };
        let mut order: Vec<usize> = idx.to_vec();
        order.sort_unstable_by(|&a, &b| x[(a, f)].partial_cmp(&x[(b, f)]).expect("NaN"));
        let mut best: Option<(usize, f64, f64)> = None;
        let mut g_left = vec![0.0; m];
        let mut h_left = 0.0f64;
        for pos in 0..order.len() - 1 {
            let i = order[pos];
            for (acc, v) in g_left.iter_mut().zip(g.row(i)) {
                *acc += v;
            }
            h_left += 1.0;
            let v_here = x[(i, f)];
            let v_next = x[(order[pos + 1], f)];
            if v_next <= v_here {
                continue;
            }
            let h_right = h_total - h_left;
            if h_left < self.min_child_weight || h_right < self.min_child_weight {
                continue;
            }
            let g_right: Vec<f64> = g_total.iter().zip(&g_left).map(|(t, l)| t - l).collect();
            let gain = 0.5 * (score(&g_left, h_left) + score(&g_right, h_right) - parent_score)
                - self.gamma;
            if gain > best.as_ref().map_or(0.0, |b| b.2) {
                best = Some((f, 0.5 * (v_here + v_next), gain));
            }
        }
        best
    }

    /// Builds one tree on gradients `g` (squared loss: `pred - y`; Hessian is
    /// identically 1, so `H` is the sample count).
    fn build(
        &self,
        x: &Matrix,
        g: &Matrix,
        idx: &[usize],
        depth: usize,
        par: isop_exec::Parallelism,
    ) -> XgbNode {
        let m = g.cols();
        let h_total = idx.len() as f64;
        let mut g_total = vec![0.0; m];
        for &i in idx {
            for (acc, v) in g_total.iter_mut().zip(g.row(i)) {
                *acc += v;
            }
        }
        let leaf = || XgbNode::Leaf {
            value: g_total
                .iter()
                .map(|gt| -gt / (h_total + self.lambda))
                .collect(),
        };
        if depth >= self.max_depth || h_total < 2.0 * self.min_child_weight {
            return leaf();
        }

        let score = |gs: &[f64], h: f64| -> f64 {
            gs.iter().map(|gv| gv * gv / (h + self.lambda)).sum::<f64>()
        };
        let parent_score = score(&g_total, h_total);

        // Per-feature scans fan out on big nodes only (size-based gate, so
        // the serial/parallel choice is width-independent); the fold keeps
        // the serial sweep's first-strict-maximum rule in feature order.
        let features: Vec<usize> = (0..x.cols()).collect();
        let scan_threads = if par.is_parallel()
            && idx.len() * features.len() >= crate::train::SPLIT_SCAN_MIN_WORK
        {
            par.threads
        } else {
            1
        };
        let candidates = isop_exec::par_map_indexed(scan_threads, &features, |_, &f| {
            self.best_xgb_split(x, g, idx, f, &g_total, h_total, parent_score)
        });
        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, gain
        for cand in candidates.into_iter().flatten() {
            if cand.2 > best.as_ref().map_or(0.0, |b| b.2) {
                best = Some(cand);
            }
        }

        let Some((feature, threshold, _)) = best else {
            return leaf();
        };
        let (mut li, mut ri) = (Vec::new(), Vec::new());
        for &i in idx {
            if x[(i, feature)] <= threshold {
                li.push(i);
            } else {
                ri.push(i);
            }
        }
        XgbNode::Split {
            feature,
            threshold,
            left: Box::new(self.build(x, g, &li, depth + 1, par)),
            right: Box::new(self.build(x, g, &ri, depth + 1, par)),
        }
    }
}

impl Regressor for XgbRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fit_with(data, &TrainContext::serial())
    }

    fn fit_with(&mut self, data: &Dataset, ctx: &TrainContext) -> Result<(), MlError> {
        let _span = isop_telemetry::span!(ctx.telemetry, "ml.fit.xgb");
        self.n_features = data.n_features();
        self.n_outputs = data.n_outputs();
        let (n, m) = (data.len(), self.n_outputs);
        let threads = ctx.parallelism.threads;
        self.base = (0..m)
            .map(|c| data.y.col_vec(c).iter().sum::<f64>() / n as f64)
            .collect();
        let mut pred = Matrix::zeros(n, m);
        for r in 0..n {
            pred.row_mut(r).copy_from_slice(&self.base);
        }
        let idx: Vec<usize> = (0..n).collect();
        self.stages = Vec::with_capacity(self.n_stages);
        let mut grad = Matrix::zeros(n, m);
        for _ in 0..self.n_stages {
            let mut chunks = fill_gradients(threads, &data.y, &pred, &mut grad, |y, p| p - y);
            let tree = self.build(&data.x, &grad, &idx, 0, ctx.parallelism);
            chunks += apply_stage(
                threads,
                &data.x,
                &mut pred,
                self.learning_rate,
                |row, out| tree.predict_into(row, out),
            );
            ctx.telemetry.add(Counter::TrainChunks, chunks);
            self.stages.push(tree);
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if self.stages.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: x.cols(),
            });
        }
        let mut out = Matrix::zeros(x.rows(), self.n_outputs);
        let mut scratch = vec![0.0; self.n_outputs];
        for r in 0..x.rows() {
            out.row_mut(r).copy_from_slice(&self.base);
            for tree in &self.stages {
                tree.predict_into(x.row(r), &mut scratch);
                for (o, s) in out.row_mut(r).iter_mut().zip(&scratch) {
                    *o += self.learning_rate * s;
                }
            }
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "XGBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn surface(n_side: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n_side * n_side)
            .map(|i| {
                let a = (i % n_side) as f64 / n_side as f64 * 2.0 - 1.0;
                let b = (i / n_side) as f64 / n_side as f64 * 2.0 - 1.0;
                vec![a, b]
            })
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| (3.0 * r[0]).sin() + r[0] * r[1])
            .collect();
        Dataset::new(Matrix::from_rows(&rows), Matrix::column(&ys)).unwrap()
    }

    #[test]
    fn gbr_improves_with_stages() {
        let d = surface(20);
        let mut short = GradientBoosting::new(
            5,
            0.1,
            TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            0,
        );
        let mut long = GradientBoosting::new(
            100,
            0.1,
            TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            0,
        );
        short.fit(&d).unwrap();
        long.fit(&d).unwrap();
        let r_short = r2(&d.y.col_vec(0), &short.predict(&d.x).unwrap().col_vec(0));
        let r_long = r2(&d.y.col_vec(0), &long.predict(&d.x).unwrap().col_vec(0));
        assert!(r_long > r_short, "{r_long} !> {r_short}");
        assert!(r_long > 0.95);
    }

    #[test]
    fn xgb_fits_surface() {
        let d = surface(20);
        let mut m = XgbRegressor::new(80, 0.15, 4, 1.0, 0.0);
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.97);
    }

    #[test]
    fn xgb_beats_single_stage() {
        let d = surface(15);
        let mut one = XgbRegressor::new(1, 1.0, 4, 1.0, 0.0);
        let mut many = XgbRegressor::new(60, 0.2, 4, 1.0, 0.0);
        one.fit(&d).unwrap();
        many.fit(&d).unwrap();
        let r1 = r2(&d.y.col_vec(0), &one.predict(&d.x).unwrap().col_vec(0));
        let rn = r2(&d.y.col_vec(0), &many.predict(&d.x).unwrap().col_vec(0));
        assert!(rn > r1);
    }

    #[test]
    fn xgb_heavy_gamma_prunes_to_stump() {
        let d = surface(10);
        let mut m = XgbRegressor::new(3, 0.5, 6, 1.0, 1e9);
        m.fit(&d).unwrap();
        // With an enormous split penalty nothing splits: prediction ~= mean.
        let pred = m.predict(&d.x).unwrap();
        let mean = d.y.col_vec(0).iter().sum::<f64>() / d.len() as f64;
        // Leaves shrink slightly towards zero via lambda; allow wiggle room.
        assert!(pred.col_vec(0).iter().all(|v| (v - mean).abs() < 0.2));
    }

    #[test]
    fn gbr_multi_output() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 100.0]).collect();
        let ys: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0] * r[0], -r[0]]).collect();
        let d = Dataset::new(Matrix::from_rows(&rows), Matrix::from_rows(&ys)).unwrap();
        let mut m = GradientBoosting::paper_default();
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.99);
        assert!(r2(&d.y.col_vec(1), &pred.col_vec(1)) > 0.99);
    }

    #[test]
    fn both_error_unfitted() {
        assert_eq!(
            GradientBoosting::paper_default().predict(&Matrix::zeros(1, 2)),
            Err(MlError::NotFitted)
        );
        assert_eq!(
            XgbRegressor::paper_default().predict(&Matrix::zeros(1, 2)),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn stage_count_reported() {
        let d = surface(8);
        let mut m = GradientBoosting::new(7, 0.3, TreeConfig::default(), 0);
        m.fit(&d).unwrap();
        assert_eq!(m.n_fitted_stages(), 7);
    }
}
