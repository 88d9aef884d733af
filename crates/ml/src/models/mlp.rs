//! Multilayer perceptron regressor (the paper's "MLPR") with leaky-ReLU
//! activations, inverted dropout, Adam training, and **input gradients**.
//!
//! The input gradient (one forward plus one row-vector backward pass per
//! step) is what lets the ISOP+ local-exploration stage run gradient descent
//! on *design parameters* through the surrogate.

use crate::dataset::{Dataset, Scaler};
use crate::linalg::Matrix;
use crate::optim::Adam;
use crate::train::{TrainContext, MLP_CHUNK_ROWS};
use crate::{Differentiable, MlError, Regressor};
use isop_exec::{fixed_chunks, par_map_mut};
use isop_telemetry::Counter;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// MLP hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer widths, e.g. `[128, 128, 64]`.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Negative-side slope of the leaky ReLU.
    pub leaky_slope: f64,
    /// Dropout probability on hidden activations (0 disables).
    pub dropout: f64,
    /// RNG seed for init, shuffling, and dropout masks.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![128, 128, 64],
            epochs: 40,
            batch_size: 64,
            lr: 1e-3,
            leaky_slope: 0.01,
            dropout: 0.05,
            seed: 0,
        }
    }
}

/// One dense layer: `out = a_in * w^T + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    /// `n_out x n_in`.
    w: Matrix,
    b: Vec<f64>,
}

impl Dense {
    fn init(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // He-style initialization suited to ReLU-family activations.
        let scale = (2.0 / n_in as f64).sqrt();
        let mut w = Matrix::zeros(n_out, n_in);
        for v in w.as_mut_slice() {
            *v = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
        }
        Self {
            w,
            b: vec![0.0; n_out],
        }
    }

    /// `a (n x in) -> z (n x out)`.
    fn forward(&self, a: &Matrix) -> Matrix {
        // `w` is stored `out x in`, i.e. already the transposed right
        // operand — feed it to the kernel directly instead of paying a
        // transpose allocation per layer per call.
        let mut z = a.matmul_transposed(&self.w);
        for r in 0..z.rows() {
            for (v, b) in z.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        z
    }
}

/// Gradient accumulator for one dense layer: `gw` is `out x in` like the
/// weights, `gb` is per-output.
struct LayerGrads {
    gw: Matrix,
    gb: Vec<f64>,
}

impl LayerGrads {
    fn empty() -> Self {
        Self {
            gw: Matrix::zeros(0, 0),
            gb: Vec::new(),
        }
    }

    fn reset(&mut self, n_out: usize, n_in: usize) {
        self.gw.reset(n_out, n_in);
        self.gb.clear();
        self.gb.resize(n_out, 0.0);
    }
}

/// Reusable workspace for one gradient chunk of the data-parallel backprop:
/// one slot per chunk (not per worker — the chunk's partial gradients stay
/// in the slot until the in-order reduction), allocated once per `fit` and
/// recycled every minibatch so the training loop is allocation-free.
struct ChunkSlot {
    /// Row range `[r0, r1)` into the current minibatch, set before dispatch.
    r0: usize,
    r1: usize,
    /// Gathered targets for this chunk's rows.
    yb: Matrix,
    /// `a[l]` = input to layer `l` (post-activation/dropout of `l - 1`,
    /// `a[0]` = the gathered input rows).
    a: Vec<Matrix>,
    /// `z[l]` = pre-activation output of layer `l` (bias included).
    z: Vec<Matrix>,
    /// Loss gradient flowing backwards, plus its swap partner.
    delta: Matrix,
    next_delta: Matrix,
    /// Per-layer gradient partials for this chunk.
    grads: Vec<LayerGrads>,
}

impl ChunkSlot {
    fn new(n_layers: usize) -> Self {
        Self {
            r0: 0,
            r1: 0,
            yb: Matrix::zeros(0, 0),
            a: (0..n_layers).map(|_| Matrix::zeros(0, 0)).collect(),
            z: (0..n_layers).map(|_| Matrix::zeros(0, 0)).collect(),
            delta: Matrix::zeros(0, 0),
            next_delta: Matrix::zeros(0, 0),
            grads: (0..n_layers).map(|_| LayerGrads::empty()).collect(),
        }
    }
}

#[inline]
fn leaky(v: f64, slope: f64) -> f64 {
    if v >= 0.0 {
        v
    } else {
        slope * v
    }
}

#[inline]
fn leaky_deriv(v: f64, slope: f64) -> f64 {
    if v >= 0.0 {
        1.0
    } else {
        slope
    }
}

/// Multilayer perceptron regressor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    cfg: MlpConfig,
    layers: Vec<Dense>,
    x_scaler: Option<Scaler>,
    y_scaler: Option<Scaler>,
    n_features: usize,
    n_outputs: usize,
}

impl Mlp {
    /// Creates an unfitted MLP.
    pub fn new(cfg: MlpConfig) -> Self {
        Self {
            cfg,
            layers: Vec::new(),
            x_scaler: None,
            y_scaler: None,
            n_features: 0,
            n_outputs: 0,
        }
    }

    /// The paper's MLPR surrogate configuration.
    pub fn paper_default() -> Self {
        Self::new(MlpConfig::default())
    }

    /// Training configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// Forward pass in the standardized space, returning pre-activations per
    /// layer and the final output. `zs[l]` is the pre-activation of layer `l`.
    fn forward_all(&self, x: &Matrix) -> (Vec<Matrix>, Matrix) {
        let mut zs = Vec::with_capacity(self.layers.len());
        let mut a = x.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(&a);
            if l + 1 < self.layers.len() {
                let mut act = z.clone();
                for v in act.as_mut_slice() {
                    *v = leaky(*v, self.cfg.leaky_slope);
                }
                zs.push(z);
                a = act;
            } else {
                zs.push(z.clone());
                a = z;
            }
        }
        (zs, a)
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fit_with(data, &TrainContext::serial())
    }

    fn fit_with(&mut self, data: &Dataset, ctx: &TrainContext) -> Result<(), MlError> {
        let _span = isop_telemetry::span!(ctx.telemetry, "ml.fit.mlp");
        self.n_features = data.n_features();
        self.n_outputs = data.n_outputs();
        let x_scaler = Scaler::fit(&data.x);
        let y_scaler = Scaler::fit(&data.y);
        let xs = x_scaler.transform(&data.x);
        let ys = y_scaler.transform(&data.y);

        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut dims = vec![self.n_features];
        dims.extend_from_slice(&self.cfg.hidden);
        dims.push(self.n_outputs);
        self.layers = dims
            .windows(2)
            .map(|w| Dense::init(w[0], w[1], &mut rng))
            .collect();
        let n_layers = self.layers.len();

        // One Adam per parameter tensor.
        let mut opts: Vec<(Adam, Adam)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    Adam::new(self.cfg.lr, l.w.rows() * l.w.cols()),
                    Adam::new(self.cfg.lr, l.b.len()),
                )
            })
            .collect();

        let n = data.len();
        let bs = self.cfg.batch_size.clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        let keep = 1.0 - self.cfg.dropout;
        let has_dropout = self.cfg.dropout > 0.0;
        let slope = self.cfg.leaky_slope;
        let threads = ctx.parallelism.threads;

        // Reusable training state: gradient-chunk slots, per-layer gradient
        // totals, batch-wide dropout masks, and per-batch weight transposes
        // (`w^T` once per layer per step instead of once per chunk).
        let mut slots: Vec<ChunkSlot> = Vec::new();
        let mut totals: Vec<LayerGrads> = (0..n_layers).map(|_| LayerGrads::empty()).collect();
        let mut masks: Vec<Matrix> = (1..n_layers).map(|_| Matrix::zeros(0, 0)).collect();
        let mut w_t: Vec<Matrix> = (0..n_layers).map(|_| Matrix::zeros(0, 0)).collect();

        for epoch in 0..self.cfg.epochs {
            // Step decay: halve the learning rate at 50% and again at 75%
            // of training, a standard schedule that lets Adam settle.
            let decay = if epoch * 4 >= self.cfg.epochs * 3 {
                0.25
            } else if epoch * 2 >= self.cfg.epochs {
                0.5
            } else {
                1.0
            };
            for (w_opt, b_opt) in &mut opts {
                w_opt.set_learning_rate(self.cfg.lr * decay);
                b_opt.set_learning_rate(self.cfg.lr * decay);
            }
            order.shuffle(&mut rng);
            for batch in order.chunks(bs) {
                // All randomness is drawn serially before the parallel
                // section: dropout masks for the whole minibatch, in
                // (layer, element) order — the same stream the serial
                // trainer consumed.
                if has_dropout {
                    for (l, mask) in masks.iter_mut().enumerate() {
                        mask.reset(batch.len(), dims[l + 1]);
                        for v in mask.as_mut_slice() {
                            *v = if rng.gen::<f64>() < keep {
                                1.0 / keep
                            } else {
                                0.0
                            };
                        }
                    }
                }
                for (layer, t) in self.layers.iter().zip(&mut w_t) {
                    layer.w.transpose_into(t);
                }

                // Chunk boundaries depend only on the batch length, never
                // the thread count, so the chunk-order gradient reduction
                // below associates identically at every width.
                let ranges = fixed_chunks(batch.len(), MLP_CHUNK_ROWS);
                ctx.telemetry.add(Counter::TrainChunks, ranges.len() as u64);
                while slots.len() < ranges.len() {
                    slots.push(ChunkSlot::new(n_layers));
                }
                for (slot, &(r0, r1)) in slots.iter_mut().zip(&ranges) {
                    slot.r0 = r0;
                    slot.r1 = r1;
                }

                let layers = &self.layers;
                let scale = 2.0 / batch.len() as f64;
                par_map_mut(threads, &mut slots[..ranges.len()], |_, slot| {
                    let rows = slot.r1 - slot.r0;
                    // Gather this chunk's input and target rows.
                    slot.a[0].reset(rows, dims[0]);
                    slot.yb.reset(rows, *dims.last().expect("nonempty dims"));
                    for r in 0..rows {
                        let i = batch[slot.r0 + r];
                        slot.a[0].row_mut(r).copy_from_slice(xs.row(i));
                        slot.yb.row_mut(r).copy_from_slice(ys.row(i));
                    }

                    // Forward, caching pre-activations `z` and layer inputs
                    // `a`, applying the pre-drawn inverted-dropout masks.
                    for l in 0..n_layers {
                        let (done, rest) = slot.a.split_at_mut(l + 1);
                        done[l].matmul_into(&w_t[l], &mut slot.z[l]);
                        for r in 0..rows {
                            for (v, b) in slot.z[l].row_mut(r).iter_mut().zip(&layers[l].b) {
                                *v += b;
                            }
                        }
                        if l + 1 < n_layers {
                            let act = &mut rest[0];
                            act.reset(rows, dims[l + 1]);
                            for r in 0..rows {
                                let zr = slot.z[l].row(r);
                                let ar = act.row_mut(r);
                                if has_dropout {
                                    let mr = masks[l].row(slot.r0 + r);
                                    for ((v, z), k) in ar.iter_mut().zip(zr).zip(mr) {
                                        *v = leaky(*z, slope) * k;
                                    }
                                } else {
                                    for (v, z) in ar.iter_mut().zip(zr) {
                                        *v = leaky(*z, slope);
                                    }
                                }
                            }
                        }
                    }

                    // Backward: squared loss, delta = 2 (pred - y) / batch.
                    let pred = &slot.z[n_layers - 1];
                    slot.delta.reset(rows, pred.cols());
                    for r in 0..rows {
                        for c in 0..pred.cols() {
                            slot.delta[(r, c)] = scale * (pred[(r, c)] - slot.yb[(r, c)]);
                        }
                    }
                    for l in (0..n_layers).rev() {
                        // grad_w = delta^T * a[l], accumulated row by row so
                        // every (out, in) entry is a left fold over the
                        // chunk's rows in input order.
                        let g = &mut slot.grads[l];
                        g.reset(layers[l].w.rows(), layers[l].w.cols());
                        for r in 0..rows {
                            let ar = slot.a[l].row(r);
                            for o in 0..g.gw.rows() {
                                let d = slot.delta[(r, o)];
                                g.gb[o] += d;
                                for (gv, av) in g.gw.row_mut(o).iter_mut().zip(ar) {
                                    *gv += d * av;
                                }
                            }
                        }
                        if l > 0 {
                            slot.delta.matmul_into(&layers[l].w, &mut slot.next_delta);
                            let nd = &mut slot.next_delta;
                            for r in 0..rows {
                                let zr = slot.z[l - 1].row(r);
                                let dr = nd.row_mut(r);
                                if has_dropout {
                                    let mr = masks[l - 1].row(slot.r0 + r);
                                    for ((v, z), k) in dr.iter_mut().zip(zr).zip(mr) {
                                        *v *= leaky_deriv(*z, slope) * k;
                                    }
                                } else {
                                    for (v, z) in dr.iter_mut().zip(zr) {
                                        *v *= leaky_deriv(*z, slope);
                                    }
                                }
                            }
                            std::mem::swap(&mut slot.delta, &mut slot.next_delta);
                        }
                    }
                });

                // Reduce chunk partials in chunk order (fixed association),
                // then take the optimizer steps serially.
                for l in (0..n_layers).rev() {
                    let total = &mut totals[l];
                    total.reset(self.layers[l].w.rows(), self.layers[l].w.cols());
                    for slot in &slots[..ranges.len()] {
                        total.gw.add_in_place(&slot.grads[l].gw);
                        for (t, g) in total.gb.iter_mut().zip(&slot.grads[l].gb) {
                            *t += g;
                        }
                    }
                    let (w_opt, b_opt) = &mut opts[l];
                    w_opt.step(self.layers[l].w.as_mut_slice(), total.gw.as_slice());
                    b_opt.step(&mut self.layers[l].b, &total.gb);
                }
            }
        }

        if self
            .layers
            .iter()
            .any(|l| !l.w.as_slice().iter().all(|v| v.is_finite()))
        {
            return Err(MlError::Diverged);
        }
        self.x_scaler = Some(x_scaler);
        self.y_scaler = Some(y_scaler);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if self.layers.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: x.cols(),
            });
        }
        let xs = self
            .x_scaler
            .as_ref()
            .ok_or(MlError::NotFitted)?
            .transform(x);
        let (_, out) = self.forward_all(&xs);
        Ok(self
            .y_scaler
            .as_ref()
            .ok_or(MlError::NotFitted)?
            .inverse_transform(&out))
    }

    fn name(&self) -> &'static str {
        "MLPR"
    }
}

impl Mlp {
    /// The fitted scalers, after checking the model is fitted and `x` has
    /// its feature width.
    fn fitted_scalers(&self, x: &[f64]) -> Result<(&Scaler, &Scaler), MlError> {
        if self.layers.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                got: x.len(),
            });
        }
        Ok((
            self.x_scaler.as_ref().ok_or(MlError::NotFitted)?,
            self.y_scaler.as_ref().ok_or(MlError::NotFitted)?,
        ))
    }
}

impl Differentiable for Mlp {
    fn input_jacobian(&self, x: &[f64]) -> Result<Matrix, MlError> {
        let (x_scaler, y_scaler) = self.fitted_scalers(x)?;
        let mut row = x.to_vec();
        x_scaler.transform_row(&mut row);
        let xm = Matrix::from_rows(&[row]);
        let (zs, _) = self.forward_all(&xm);

        // Chain rule, back to front: J = W_L * D_{L-1} * W_{L-1} * ... * W_1,
        // where D_l = diag(leaky'(z_l)).
        let n_layers = self.layers.len();
        let mut jac = self.layers[n_layers - 1].w.clone();
        for l in (0..n_layers - 1).rev() {
            let z = &zs[l];
            let mut scaled = jac; // m x width(l+1)
            for r in 0..scaled.rows() {
                for (c, v) in scaled.row_mut(r).iter_mut().enumerate() {
                    *v *= leaky_deriv(z[(0, c)], self.cfg.leaky_slope);
                }
            }
            jac = scaled.matmul(&self.layers[l].w);
        }

        // Undo standardization: d y_real / d x_real = s_y * J / s_x.
        let sy = y_scaler.stds();
        let sx = x_scaler.stds();
        for o in 0..jac.rows() {
            for c in 0..jac.cols() {
                jac[(o, c)] *= sy[o] / sx[c];
            }
        }
        Ok(jac)
    }

    /// One forward pass and one row-vector backward pass through the
    /// layers, instead of the full `m x d` Jacobian. The prediction is
    /// de-scaled exactly as [`Regressor::predict`] does it.
    fn value_and_vjp(
        &self,
        x: &[f64],
        cotangent: &dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError> {
        let (x_scaler, y_scaler) = self.fitted_scalers(x)?;
        let mut row = x.to_vec();
        x_scaler.transform_row(&mut row);
        let (zs, out) = self.forward_all(&Matrix::from_rows(&[row]));
        let y: Vec<f64> = out
            .row(0)
            .iter()
            .zip(y_scaler.stds().iter().zip(y_scaler.means()))
            .map(|(v, (sd, mean))| v * sd + mean)
            .collect();

        let dy = cotangent(&y);
        assert_eq!(dy.len(), self.n_outputs, "one cotangent per output");
        let mut delta: Vec<f64> = dy
            .iter()
            .zip(y_scaler.stds())
            .map(|(d, sd)| d * sd)
            .collect();
        for l in (0..self.layers.len()).rev() {
            delta = self.layers[l].w.vecmat(&delta);
            if l > 0 {
                for (d, &z) in delta.iter_mut().zip(zs[l - 1].row(0)) {
                    *d *= leaky_deriv(z, self.cfg.leaky_slope);
                }
            }
        }
        for (d, sd) in delta.iter_mut().zip(x_scaler.stds()) {
            *d /= sd;
        }
        Ok((y, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn small_cfg() -> MlpConfig {
        MlpConfig {
            hidden: vec![32, 32],
            epochs: 200,
            batch_size: 32,
            lr: 3e-3,
            leaky_slope: 0.01,
            dropout: 0.0,
            seed: 1,
        }
    }

    fn sine_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64 * 4.0 - 2.0])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| (2.0 * r[0]).sin()).collect();
        Dataset::new(Matrix::from_rows(&rows), Matrix::column(&ys)).unwrap()
    }

    #[test]
    fn fits_sine_wave() {
        let d = sine_dataset(200);
        let mut m = Mlp::new(small_cfg());
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        let score = r2(&d.y.col_vec(0), &pred.col_vec(0));
        assert!(score > 0.97, "r2 = {score}");
    }

    #[test]
    fn multi_output_shares_trunk() {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 20) as f64 / 10.0 - 1.0, (i / 20) as f64 / 7.5 - 1.0])
            .collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![r[0] * r[1], r[0] - r[1]])
            .collect();
        let d = Dataset::new(Matrix::from_rows(&rows), Matrix::from_rows(&ys)).unwrap();
        let mut m = Mlp::new(small_cfg());
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.9);
        assert!(r2(&d.y.col_vec(1), &pred.col_vec(1)) > 0.95);
    }

    #[test]
    fn input_jacobian_matches_finite_differences() {
        let d = sine_dataset(200);
        let mut m = Mlp::new(small_cfg());
        m.fit(&d).unwrap();
        for &x0 in &[-1.5, -0.3, 0.4, 1.2] {
            let jac = m.input_jacobian(&[x0]).unwrap();
            let h = 1e-5;
            let hi = m.predict(&Matrix::from_rows(&[vec![x0 + h]])).unwrap()[(0, 0)];
            let lo = m.predict(&Matrix::from_rows(&[vec![x0 - h]])).unwrap()[(0, 0)];
            let fd = (hi - lo) / (2.0 * h);
            assert!(
                (jac[(0, 0)] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "at {x0}: analytic {} vs fd {fd}",
                jac[(0, 0)]
            );
        }
    }

    #[test]
    fn jacobian_shape_is_outputs_by_features() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 2.0 * i as f64, 1.0])
            .collect();
        let ys: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0], r[1]]).collect();
        let d = Dataset::new(Matrix::from_rows(&rows), Matrix::from_rows(&ys)).unwrap();
        let mut m = Mlp::new(MlpConfig {
            hidden: vec![8],
            epochs: 5,
            ..small_cfg()
        });
        m.fit(&d).unwrap();
        let jac = m.input_jacobian(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((jac.rows(), jac.cols()), (2, 3));
    }

    #[test]
    fn dropout_training_still_converges() {
        let d = sine_dataset(200);
        let mut m = Mlp::new(MlpConfig {
            dropout: 0.1,
            epochs: 300,
            ..small_cfg()
        });
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.9);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = sine_dataset(50);
        let cfg = MlpConfig {
            epochs: 10,
            ..small_cfg()
        };
        let mut a = Mlp::new(cfg.clone());
        let mut b = Mlp::new(cfg);
        a.fit(&d).unwrap();
        b.fit(&d).unwrap();
        assert_eq!(a.predict(&d.x).unwrap(), b.predict(&d.x).unwrap());
    }

    #[test]
    fn unfitted_errors() {
        let m = Mlp::paper_default();
        assert_eq!(m.predict(&Matrix::zeros(1, 1)), Err(MlError::NotFitted));
        assert_eq!(m.input_jacobian(&[0.0]), Err(MlError::NotFitted));
        assert_eq!(
            m.value_and_vjp(&[0.0], &|y| y.to_vec()),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn width_mismatch_errors() {
        let d = sine_dataset(30);
        let mut m = Mlp::new(MlpConfig {
            epochs: 2,
            ..small_cfg()
        });
        m.fit(&d).unwrap();
        assert!(matches!(
            m.predict(&Matrix::zeros(1, 3)),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            m.input_jacobian(&[0.0, 1.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            m.value_and_vjp(&[0.0, 1.0], &|y| y.to_vec()),
            Err(MlError::ShapeMismatch { .. })
        ));
    }
}
