//! Multilayer perceptron regressor (the paper's "MLPR") with leaky-ReLU
//! activations, inverted dropout, Adam training, and **input gradients**.
//!
//! The network is a [`Network`] layer stack of dense layers over the
//! shared core in [`nn`], the same kernels, trainer, blocked predict and
//! VJP the 1D-CNN runs. Every pass is batch-major, so a batch prediction
//! is bit-identical to predicting each row alone at any row count. The
//! input gradient (one forward plus one input-only backward pass per step)
//! is what lets the ISOP+ local-exploration stage run gradient descent on
//! *design parameters* through the surrogate.

use super::nn::{
    self, batch_major, dense_batch, dense_input_grad, dense_weight_grads, leaky_into, mask_rows,
    mul_leaky_d, row_major, squared_error_grad, Network, Schedule,
};
use crate::dataset::{Dataset, Scaler};
use crate::linalg::Matrix;
use crate::train::{TrainContext, MLP_CHUNK_ROWS};
use crate::{Differentiable, MlError, Regressor};
use rand::rngs::StdRng;
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

/// One dense layer: `out = w · a_in + b`.
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
}

/// Batch-major buffers for up to `rows` rows, each `[feature][row]`:
/// `a[l]` is layer `l`'s input (`a[0]` the standardized input rows, the
/// rest activated and dropped), `z[l]` its pre-activation output, the last
/// one the network output. `ga` and `gb` are the gradient pair; `rm` holds
/// the row-major copy of the input whose weight gradient is being summed.
pub(super) struct MlpActs {
    rows: usize,
    a: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    ga: Vec<f64>,
    gb: Vec<f64>,
    rm: Vec<f64>,
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

    /// The backward pass over the rows the last forward pass left in `ws`,
    /// from the output gradient in `ws.ga`. With `grads`, it adds each
    /// layer's weight and bias gradients (through the dropout `masks`) and
    /// stops at the first layer; without, it carries the gradient to the
    /// standardized input and returns it.
    fn backward<'w>(
        &self,
        masks: &[&[f64]],
        mut grads: Option<&mut [Vec<f64>]>,
        ws: &'w mut MlpActs,
    ) -> &'w [f64] {
        let (rows, s) = (ws.rows, self.cfg.leaky_slope);
        let MlpActs {
            a, z, ga, gb, rm, ..
        } = ws;
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (n_out, n_in) = (layer.w.rows(), layer.w.cols());
            let d = &ga[..n_out * rows];
            if let Some(grads) = grads.as_deref_mut() {
                let [gw, gbias] = &mut grads[2 * l..2 * l + 2] else {
                    unreachable!("a weight and a bias tensor per layer");
                };
                row_major(&a[l][..n_in * rows], n_in, rows, rm, |v| v);
                dense_weight_grads(d, &rm[..n_in * rows], (gw, gbias), rows);
                if l == 0 {
                    break;
                }
            }
            let d_in = &mut gb[..n_in * rows];
            dense_input_grad(layer.w.as_slice(), d, d_in, rows);
            if l > 0 {
                if let Some(mask) = masks.get(l - 1) {
                    mask_rows(d_in, mask, rows);
                }
                mul_leaky_d(d_in, &z[l - 1][..n_in * rows], s);
            }
            std::mem::swap(ga, gb);
        }
        &ga[..self.n_features * rows]
    }
}

impl Network for Mlp {
    type Workspace = MlpActs;

    fn scalers(&self) -> Option<(&Scaler, &Scaler)> {
        self.x_scaler.as_ref().zip(self.y_scaler.as_ref())
    }

    fn schedule(&self) -> Schedule {
        Schedule {
            epochs: self.cfg.epochs,
            batch_size: self.cfg.batch_size,
            lr: self.cfg.lr,
            dropout: self.cfg.dropout,
            mask_widths: self.cfg.hidden.clone(),
            chunk_rows: MLP_CHUNK_ROWS,
        }
    }

    fn params_mut(&mut self) -> Vec<&mut [f64]> {
        self.layers
            .iter_mut()
            .flat_map(|l| [l.w.as_mut_slice(), &mut l.b[..]])
            .collect()
    }

    fn workspace(&self, rows: usize) -> MlpActs {
        let widest = self.layers.iter().map(|l| l.w.cols().max(l.w.rows()));
        let grad_len = widest.max().unwrap_or(0) * rows;
        MlpActs {
            rows,
            a: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.w.cols() * rows])
                .collect(),
            z: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.w.rows() * rows])
                .collect(),
            ga: vec![0.0; grad_len],
            gb: vec![0.0; grad_len],
            rm: vec![0.0; grad_len],
        }
    }

    /// Hidden layer `l` takes mask `l`.
    fn forward_rows<'a, 'w>(
        &self,
        x: impl ExactSizeIterator<Item = &'a [f64]>,
        masks: &[&[f64]],
        ws: &'w mut MlpActs,
    ) -> &'w [f64] {
        let (rows, s) = (x.len(), self.cfg.leaky_slope);
        ws.rows = rows;
        batch_major(x, rows, &mut ws.a[0]);
        for (l, layer) in self.layers.iter().enumerate() {
            let (n_out, n_in) = (layer.w.rows(), layer.w.cols());
            let z = &mut ws.z[l][..n_out * rows];
            dense_batch(
                layer.w.as_slice(),
                &layer.b,
                &ws.a[l][..n_in * rows],
                z,
                rows,
            );
            if let Some(next) = ws.a.get_mut(l + 1) {
                let act = &mut next[..n_out * rows];
                leaky_into(z, s, act);
                if let Some(mask) = masks.get(l) {
                    mask_rows(act, mask, rows);
                }
            }
        }
        &ws.z[self.layers.len() - 1][..self.n_outputs * rows]
    }

    fn train_chunk(
        &self,
        (xs, ys): (&Matrix, &Matrix),
        idx: &[usize],
        masks: &[&[f64]],
        ws: &mut MlpActs,
        grads: &mut [Vec<f64>],
    ) {
        let out = self.forward_rows(idx.iter().map(|&i| xs.row(i)), masks, ws);
        let o_len = out.len();
        let last = self.layers.len() - 1;
        squared_error_grad(&ws.z[last][..o_len], ys, idx, &mut ws.ga[..o_len]);
        self.backward(masks, Some(grads), ws);
    }

    fn backward_input<'w>(&self, d_out: &[f64], ws: &'w mut MlpActs) -> &'w [f64] {
        ws.ga[..d_out.len()].copy_from_slice(d_out);
        self.backward(&[], None, ws)
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
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut dims = vec![self.n_features];
        dims.extend_from_slice(&self.cfg.hidden);
        dims.push(self.n_outputs);
        self.layers = dims
            .windows(2)
            .map(|w| Dense::init(w[0], w[1], &mut rng))
            .collect();
        let (x_scaler, y_scaler) = nn::train(self, data, &mut rng, ctx)?;
        self.x_scaler = Some(x_scaler);
        self.y_scaler = Some(y_scaler);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError> {
        nn::predict(self, x)
    }

    fn name(&self) -> &'static str {
        "MLPR"
    }
}

impl Differentiable for Mlp {
    fn input_jacobian(&self, x: &[f64]) -> Result<Matrix, MlError> {
        nn::input_jacobian(self, x)
    }

    fn value_and_vjp(
        &self,
        x: &[f64],
        cotangent: &dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError> {
        nn::value_and_vjp(self, x, cotangent)
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

    /// An MLP with three hidden layers, briefly fitted with dropout on a
    /// 15-feature, 3-output dataset whose 120 rows leave a short last
    /// minibatch chunk, and a probe matrix of 300 rows that also reach
    /// outside the training range.
    fn wide_model_and_probe() -> (Mlp, Matrix) {
        let row = |i: usize, scale: f64| -> Vec<f64> {
            (0..15)
                .map(|j| (((i * 31 + j * 17) % 97) as f64 / 48.0 - 1.0) * scale)
                .collect()
        };
        let rows: Vec<Vec<f64>> = (0..120).map(|i| row(i, 1.0)).collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![r[0] * r[1], r[2].sin(), r[3] - r[4] * r[4]])
            .collect();
        let d = Dataset::new(Matrix::from_rows(&rows), Matrix::from_rows(&ys)).unwrap();
        let mut m = Mlp::new(MlpConfig {
            hidden: vec![48, 40, 24],
            epochs: 3,
            batch_size: 40,
            lr: 1.5e-3,
            dropout: 0.05,
            seed: 7,
            ..MlpConfig::default()
        });
        m.fit(&d).unwrap();
        let probe: Vec<Vec<f64>> = (0..300).map(|i| row(i + 7, 1.5)).collect();
        (m, Matrix::from_rows(&probe))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `predict` runs its rows in blocks, yet at every row count each row
    /// equals that row predicted alone and the prediction half of the
    /// fused value-and-gradient call, bit for bit.
    #[test]
    fn predict_is_bit_identical_at_every_row_count() {
        let (m, probe) = wide_model_and_probe();
        let singles: Vec<Vec<u64>> = (0..probe.rows())
            .map(|r| {
                let x = probe.row(r);
                let single = m.predict(&Matrix::from_rows(&[x.to_vec()])).unwrap();
                let (y, _) = m.value_and_vjp(x, &|y| y.to_vec()).unwrap();
                assert_eq!(bits(single.row(0)), bits(&y), "row {r} vs fused");
                bits(&y)
            })
            .collect();
        for n in [1, 2, 3, 8, 9, 16, 17, 64, 300] {
            let batch =
                Matrix::from_rows(&(0..n).map(|r| probe.row(r).to_vec()).collect::<Vec<_>>());
            let pred = m.predict(&batch).unwrap();
            for (r, single) in singles.iter().take(n).enumerate() {
                assert_eq!(&bits(pred.row(r)), single, "batch {n}, row {r}");
            }
        }
    }

    /// FNV-1a over the bits of `vals`, in order.
    fn hash_bits<'a>(vals: impl IntoIterator<Item = &'a f64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in vals {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The hash of every weight and bias, layer by layer, and the first
    /// output's bits on the first three rows of `probe`.
    fn fit_pin(m: &Mlp, probe: &Matrix) -> (u64, [u64; 3]) {
        let params = m
            .layers
            .iter()
            .flat_map(|l| l.w.as_slice().iter().chain(&l.b));
        let rows: Vec<Vec<f64>> = (0..3).map(|r| probe.row(r).to_vec()).collect();
        let pred = m.predict(&Matrix::from_rows(&rows)).unwrap();
        (hash_bits(params), [0, 1, 2].map(|r| pred[(r, 0)].to_bits()))
    }

    /// Fitted weights and predictions are pinned bit for bit, so a change
    /// to the training kernels, the trainer or the RNG stream that moves
    /// any rounding fails here. The pins cover the three-hidden-layer
    /// dropout fit (16/16/8-row chunks) and the small config without
    /// dropout.
    #[test]
    fn fitted_weights_are_pinned() {
        let (wide, probe) = wide_model_and_probe();
        let got_wide = fit_pin(&wide, &probe);

        let d = sine_dataset(100);
        let mut small = Mlp::new(MlpConfig {
            epochs: 6,
            ..small_cfg()
        });
        small.fit(&d).unwrap();
        let got_small = fit_pin(&small, &d.x);

        let want = [
            (
                0xffdf_9b99_3d44_8bc3,
                [
                    0x3fba_afa9_79db_0ed4,
                    0x3fa8_d1c2_cac1_5178,
                    0xbfa0_3c0c_a27e_e743,
                ],
            ),
            (
                0x3aa5_cc2f_0bd1_75ea,
                [
                    0xbfb2_11b3_f955_737b,
                    0xbfb1_b2aa_7af9_1a86,
                    0xbfb1_53a0_fc9c_c196,
                ],
            ),
        ];
        assert_eq!([got_wide, got_small], want, "{:#x?}", [got_wide, got_small]);
    }

    /// Row `o` of the Jacobian is the VJP with the one-hot cotangent `e_o`,
    /// bit for bit.
    #[test]
    fn input_jacobian_rows_are_one_hot_vjps() {
        let (m, probe) = wide_model_and_probe();
        for r in [0, 5, 299] {
            let x = probe.row(r);
            let jac = m.input_jacobian(x).unwrap();
            for o in 0..m.n_outputs {
                let (_, g) = m
                    .value_and_vjp(x, &|y| {
                        (0..y.len()).map(|i| f64::from(u8::from(i == o))).collect()
                    })
                    .unwrap();
                assert_eq!(bits(jac.row(o)), bits(&g), "row {r}, output {o}");
            }
        }
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
