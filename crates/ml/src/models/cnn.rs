//! 1D-CNN regressor — the paper's headline surrogate architecture.
//!
//! Tabular features carry no spatial order, so the network first passes them
//! through a fully connected **expansion layer** that synthesizes a long
//! feature signal, reshapes it into channels, and only then applies 1-D
//! convolutions (the "1D-CNN for tabular data" recipe the paper adopts from
//! the MoA Kaggle solution). The paper expands 15 -> 16384 features; this
//! reproduction defaults to 15 -> 128 to stay laptop-scale — the architecture
//! and every code path are identical, only widths differ (recorded in
//! DESIGN.md).
//!
//! Implements full backpropagation, including gradients with respect to the
//! input vector ([`Differentiable`]), which the ISOP+ gradient-descent stage
//! requires. That stage makes one input-gradient (VJP) evaluation per step:
//! one forward pass plus one input-only backward pass, with no
//! weight-gradient writes and no full Jacobian.
//!
//! Every pass is batch-major: activations are laid out `[feature][row]`, so
//! the inner loops run over rows, and one kernel per layer kind serves every
//! row count: a Harmonica stage's 300 rows, a training chunk of
//! [`CNN_CHUNK_ROWS`], and the single row of a Hyperband probe or a VJP.
//! Training and the VJP run the same input-gradient kernels; weight
//! gradients read a row-major copy of the layer input instead. The dense
//! kernels hold their sums in registers over blocks of [`DENSE_BLOCK_ROWS`]
//! rows and take the rest one row at a time; each conv kernel tap is one
//! contiguous run over the positions it reaches inside the padding. No
//! element's summation order depends on how rows are blocked, so a batch
//! prediction is bit-identical to predicting each row alone, and the fitted
//! weights do not depend on the chunking.

use crate::dataset::{Dataset, Scaler};
use crate::linalg::Matrix;
use crate::optim::Adam;
use crate::train::{TrainContext, CNN_CHUNK_ROWS};
use crate::{Differentiable, MlError, Regressor};
use isop_exec::{fixed_chunks, par_map_mut};
use isop_telemetry::Counter;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// 1D-CNN hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cnn1dConfig {
    /// Width of the FC expansion layer (`channels * signal_len`).
    pub expand: usize,
    /// Channels after the reshape.
    pub channels: usize,
    /// Channels of each of the two convolution layers.
    pub conv_channels: usize,
    /// Convolution kernel size (odd; implicit same-padding).
    pub kernel: usize,
    /// Width of the dense head.
    pub head: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Leaky-ReLU negative slope.
    pub leaky_slope: f64,
    /// Dropout probability on the dense head during training.
    pub dropout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Cnn1dConfig {
    fn default() -> Self {
        Self {
            expand: 128,
            channels: 8,
            conv_channels: 16,
            kernel: 3,
            head: 48,
            epochs: 40,
            batch_size: 64,
            lr: 1.5e-3,
            leaky_slope: 0.01,
            dropout: 0.05,
            seed: 0,
        }
    }
}

#[inline]
fn leaky(v: f64, s: f64) -> f64 {
    if v >= 0.0 {
        v
    } else {
        s * v
    }
}

#[inline]
fn leaky_d(v: f64, s: f64) -> f64 {
    if v >= 0.0 {
        1.0
    } else {
        s
    }
}

/// `d *= leaky'(pre)` element-wise: a gradient back through leaky-ReLU.
fn mul_leaky_d(d: &mut [f64], pre: &[f64], s: f64) {
    for (dv, &z) in d.iter_mut().zip(pre) {
        *dv *= leaky_d(z, s);
    }
}

/// Flat parameter tensor with shape metadata left to the call sites.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Tensor {
    data: Vec<f64>,
}

impl Tensor {
    fn init(len: usize, fan_in: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / fan_in.max(1) as f64).sqrt();
        Self {
            data: (0..len)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                .collect(),
        }
    }

    fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }
}

/// Rows per block of the batch-major inference kernel: a block's
/// activations stay cache-resident while the inner loops still run over
/// enough rows to vectorize.
const PREDICT_BLOCK_ROWS: usize = 32;

/// Rows per register block of the dense kernels: the block's running sums
/// stay in registers for the whole inner loop.
const DENSE_BLOCK_ROWS: usize = 8;

/// Batch-major buffers for up to `rows` rows, each laid out
/// `[feature][row]`. The forward pass keeps what the backward passes read:
/// the pre-activations that leaky-ReLU's derivative needs, each pooled
/// layer's output, and the network output. `ga` and `gb` are one pair of
/// gradient buffers reused layer after layer; the forward pass parks its
/// transient activations there, and the (dropped) head activation is still
/// in `gb` when the backward pass starts. `rm` holds the input rows on the
/// way in, then the row-major copy of the layer input whose weight gradient
/// is being summed, or the input-only pass's gradient at the input; `acc`
/// holds a conv layer's weight gradient as `[oc][dk][ic]`.
struct BatchActs {
    rows: usize,
    e_pre: Vec<f64>,
    z1: Vec<f64>,
    p1: Vec<f64>,
    z2: Vec<f64>,
    p2: Vec<f64>,
    h_pre: Vec<f64>,
    out: Vec<f64>,
    ga: Vec<f64>,
    gb: Vec<f64>,
    rm: Vec<f64>,
    acc: Vec<f64>,
}

impl BatchActs {
    fn zeros_like(model: &Cnn1d, rows: usize) -> Self {
        let cfg = &model.cfg;
        let (c0, c1, head, m) = (cfg.channels, cfg.conv_channels, cfg.head, model.n_outputs);
        let (l0, l1) = (model.l0(), model.l1());
        let grad_len = (c0.max(c1) * l0).max(head).max(m) * rows;
        let rm_len = (c0 * l0).max(c1 * l1).max(head).max(model.n_features) * rows;
        Self {
            rows,
            e_pre: vec![0.0; c0 * l0 * rows],
            z1: vec![0.0; c1 * l0 * rows],
            p1: vec![0.0; c1 * l1 * rows],
            z2: vec![0.0; c1 * l1 * rows],
            p2: vec![0.0; model.flat_len() * rows],
            h_pre: vec![0.0; head * rows],
            out: vec![0.0; m * rows],
            ga: vec![0.0; grad_len],
            gb: vec![0.0; grad_len],
            rm: vec![0.0; rm_len],
            acc: vec![0.0; c1 * cfg.kernel * c0.max(c1)],
        }
    }
}

/// Batch-major dense layer:
/// `out[o][r] = b[o] + sum_j w[o][j] * input[j][r]`, summed from the bias
/// over `j` ascending.
fn dense_batch(w: &[f64], b: &[f64], input: &[f64], out: &mut [f64], rows: usize) {
    let n_in = input.len() / rows;
    let blocked = rows - rows % DENSE_BLOCK_ROWS;
    for ((o_row, w_row), &bias) in out.chunks_exact_mut(rows).zip(w.chunks_exact(n_in)).zip(b) {
        for r0 in (0..blocked).step_by(DENSE_BLOCK_ROWS) {
            let mut acc = [bias; DENSE_BLOCK_ROWS];
            for (&wv, in_j) in w_row.iter().zip(input.chunks_exact(rows)) {
                for (a, &v) in acc.iter_mut().zip(&in_j[r0..r0 + DENSE_BLOCK_ROWS]) {
                    *a += wv * v;
                }
            }
            o_row[r0..r0 + DENSE_BLOCK_ROWS].copy_from_slice(&acc);
        }
    }
    for r in blocked..rows {
        for ((o_row, w_row), &bias) in out.chunks_exact_mut(rows).zip(w.chunks_exact(n_in)).zip(b) {
            let mut acc = bias;
            for (&wv, in_j) in w_row.iter().zip(input.chunks_exact(rows)) {
                acc += wv * in_j[r];
            }
            o_row[r] = acc;
        }
    }
}

/// Batch-major dense-layer input gradient at output gradient `d`
/// (`[out][row]`): `d_in[j][r] = sum_o d[o][r] * w[o][j]`, summed from
/// zero over `o` ascending. Rows past the last full register block take an
/// axpy over `j` per output.
fn dense_input_grad(w: &[f64], d: &[f64], d_in: &mut [f64], rows: usize) {
    let n_in = d_in.len() / rows;
    let blocked = rows - rows % DENSE_BLOCK_ROWS;
    for r0 in (0..blocked).step_by(DENSE_BLOCK_ROWS) {
        for (j, d_j) in d_in.chunks_exact_mut(rows).enumerate() {
            let mut acc = [0.0; DENSE_BLOCK_ROWS];
            for (w_row, d_o) in w.chunks_exact(n_in).zip(d.chunks_exact(rows)) {
                let wv = w_row[j];
                for (a, &g) in acc.iter_mut().zip(&d_o[r0..r0 + DENSE_BLOCK_ROWS]) {
                    *a += g * wv;
                }
            }
            d_j[r0..r0 + DENSE_BLOCK_ROWS].copy_from_slice(&acc);
        }
    }
    for r in blocked..rows {
        for d_j in d_in.chunks_exact_mut(rows) {
            d_j[r] = 0.0;
        }
        for (w_row, d_o) in w.chunks_exact(n_in).zip(d.chunks_exact(rows)) {
            let g = d_o[r];
            for (d_j, &wv) in d_in.chunks_exact_mut(rows).zip(w_row) {
                d_j[r] += g * wv;
            }
        }
    }
}

/// Batch-major dense-layer weight gradients at output gradient `d`
/// (`[out][row]`): adds `d[o][r]` into `gb[o]` and `d[o][r] * input_rm[r][j]`
/// into `gw[o][j]`, rows ascending.
fn dense_weight_grads(
    d: &[f64],
    input_rm: &[f64],
    (gw, gb): (&mut [f64], &mut [f64]),
    rows: usize,
) {
    let n_in = input_rm.len() / rows;
    for (r, in_row) in input_rm.chunks_exact(n_in).enumerate() {
        for ((gw_row, gbv), d_o) in gw
            .chunks_exact_mut(n_in)
            .zip(gb.iter_mut())
            .zip(d.chunks_exact(rows))
        {
            let g = d_o[r];
            *gbv += g;
            for (a, &v) in gw_row.iter_mut().zip(in_row) {
                *a += g * v;
            }
        }
    }
}

/// `out = leaky(pre)` element-wise.
fn leaky_into(pre: &[f64], s: f64, out: &mut [f64]) {
    for (a, &z) in out.iter_mut().zip(pre) {
        *a = leaky(z, s);
    }
}

/// Multiplies the batch-major `v` (`[feature][row]`) by the row-major
/// inverted-dropout masks (`[row][feature]`).
fn mask_rows(v: &mut [f64], masks: &[f64], rows: usize) {
    let width = v.len() / rows;
    for (j, v_j) in v.chunks_exact_mut(rows).enumerate() {
        for (r, x) in v_j.iter_mut().enumerate() {
            *x *= masks[r * width + j];
        }
    }
}

/// Writes `rm[r][q][c] = f(cols[c][q][r])`: the row-major copy of a
/// `[channel][pos][row]` block that a weight gradient reads, with `f`
/// applied on the way. A dense layer's input is the case of one position.
fn row_major(cols: &[f64], ch: usize, rows: usize, rm: &mut [f64], f: impl Fn(f64) -> f64) {
    let len = cols.len() / (ch * rows);
    for (c, col) in cols.chunks_exact(len * rows).enumerate() {
        for (q, pos) in col.chunks_exact(rows).enumerate() {
            for (r, &v) in pos.iter().enumerate() {
                rm[(r * len + q) * ch + c] = f(v);
            }
        }
    }
}

/// Batch-major average pool of width 2 over `[c][pos][row]` buffers.
fn avg_pool2_batch(input: &[f64], rows: usize, out: &mut [f64]) {
    for (o_pair, in_pair) in out.chunks_exact_mut(rows).zip(input.chunks_exact(2 * rows)) {
        let (even, odd) = in_pair.split_at(rows);
        for ((o, &a), &b) in o_pair.iter_mut().zip(even).zip(odd) {
            *o = 0.5 * (a + b);
        }
    }
}

/// Batch-major average-unpool, then leaky-ReLU's derivative:
/// `d_in[c][2p + i][r] = (0.0 + 0.5 * d_out[c][p][r]) * leaky'(pre[c][2p + i][r])`.
fn unpool2_leaky_batch(d_out: &[f64], pre: &[f64], s: f64, rows: usize, d_in: &mut [f64]) {
    for ((pair, z), d) in d_in
        .chunks_exact_mut(2 * rows)
        .zip(pre.chunks_exact(2 * rows))
        .zip(d_out.chunks_exact(rows))
    {
        let (even, odd) = pair.split_at_mut(rows);
        let (z_even, z_odd) = z.split_at(rows);
        for ((((a, b), &za), &zb), &g) in even.iter_mut().zip(odd).zip(z_even).zip(z_odd).zip(d) {
            let g = 0.5 * g;
            *a = (0.0 + g) * leaky_d(za, s);
            *b = (0.0 + g) * leaky_d(zb, s);
        }
    }
}

/// A conv layer's weights (`[oc][ic][dk]`) and bias with its geometry:
/// input channels, signal length and an odd kernel with implicit
/// same-padding. Output position `p` reads input `p + dk - pad`. Buffers
/// are batch-major, `[ch][pos][row]`.
#[derive(Clone, Copy)]
struct Conv<'a> {
    w: &'a [f64],
    b: &'a [f64],
    in_ch: usize,
    len: usize,
    k: usize,
}

impl Conv<'_> {
    /// Output positions `p0..p1` that tap `dk` reaches inside the padding,
    /// and the input position `q0` the first of them reads: one contiguous
    /// run, so the inner loops carry no bounds branch.
    fn tap_run(&self, dk: usize) -> Option<(usize, usize, usize)> {
        let pad = self.k / 2;
        let p0 = pad.saturating_sub(dk);
        let p1 = (self.len + pad).saturating_sub(dk).min(self.len);
        (p0 < p1).then(|| (p0, p1, p0 + dk - pad))
    }

    /// `out[oc][p] = b[oc] + sum_ic sum_dk w[oc][ic][dk] * input[ic][p + dk - pad]`,
    /// summed from the bias, then `ic` ascending, then `dk` ascending.
    fn forward(&self, input: &[f64], out: &mut [f64], rows: usize) {
        let run = self.len * rows;
        for ((o_ch, taps), &bias) in out
            .chunks_exact_mut(run)
            .zip(self.w.chunks_exact(self.in_ch * self.k))
            .zip(self.b)
        {
            o_ch.fill(bias);
            for (tap, in_ch) in taps.chunks_exact(self.k).zip(input.chunks_exact(run)) {
                for (dk, &wv) in tap.iter().enumerate() {
                    let Some((p0, p1, q0)) = self.tap_run(dk) else {
                        continue;
                    };
                    let src = &in_ch[q0 * rows..(q0 + p1 - p0) * rows];
                    for (o, &v) in o_ch[p0 * rows..p1 * rows].iter_mut().zip(src) {
                        *o += wv * v;
                    }
                }
            }
        }
    }

    /// Writes the input gradient at output gradient `d_out` into `d_in`.
    /// An input element sums from zero over `oc` ascending, then over its
    /// taps with `dk` descending, which visits the output positions it
    /// reaches in ascending order.
    fn backward_input(&self, d_out: &[f64], d_in: &mut [f64], rows: usize) {
        let run = self.len * rows;
        d_in.fill(0.0);
        for (taps, g) in self
            .w
            .chunks_exact(self.in_ch * self.k)
            .zip(d_out.chunks_exact(run))
        {
            for (tap, d) in taps.chunks_exact(self.k).zip(d_in.chunks_exact_mut(run)) {
                for dk in (0..self.k).rev() {
                    let Some((p0, p1, q0)) = self.tap_run(dk) else {
                        continue;
                    };
                    let wv = tap[dk];
                    let dst = &mut d[q0 * rows..(q0 + p1 - p0) * rows];
                    for (dv, gv) in dst.iter_mut().zip(&g[p0 * rows..p1 * rows]) {
                        *dv += gv * wv;
                    }
                }
            }
        }
    }

    /// Adds the weight and bias gradients at output gradient `d_out` into
    /// `gw` and `gb`, reading the layer input as its row-major copy
    /// `input_rm` (`[row][pos][ic]`). Each weight sums over rows in order,
    /// then positions ascending. `acc` holds those sums as `[oc][dk][ic]`,
    /// where the taps one position reaches are one contiguous run, and is
    /// added into `gw` at the end.
    fn weight_grads(
        &self,
        d_out: &[f64],
        input_rm: &[f64],
        acc: &mut [f64],
        (gw, gb): (&mut [f64], &mut [f64]),
        rows: usize,
    ) {
        let (in_ch, len, k) = (self.in_ch, self.len, self.k);
        let pad = k / 2;
        let acc = &mut acc[..gw.len()];
        acc.fill(0.0);
        for (r, in_r) in input_rm.chunks_exact(len * in_ch).enumerate() {
            for ((acc_oc, gbv), d_oc) in acc
                .chunks_exact_mut(k * in_ch)
                .zip(gb.iter_mut())
                .zip(d_out.chunks_exact(len * rows))
            {
                for p in 0..len {
                    let g = d_oc[p * rows + r];
                    *gbv += g;
                    let (dk0, dk1) = (pad.saturating_sub(p), k.min(len + pad - p));
                    let (a0, q0, n) = (dk0 * in_ch, (p + dk0 - pad) * in_ch, (dk1 - dk0) * in_ch);
                    for (a, &v) in acc_oc[a0..a0 + n].iter_mut().zip(&in_r[q0..q0 + n]) {
                        *a += g * v;
                    }
                }
            }
        }
        for (gw_oc, acc_oc) in gw
            .chunks_exact_mut(in_ch * k)
            .zip(acc.chunks_exact(k * in_ch))
        {
            for (ic, taps) in gw_oc.chunks_exact_mut(k).enumerate() {
                for (dk, t) in taps.iter_mut().enumerate() {
                    *t += acc_oc[dk * in_ch + ic];
                }
            }
        }
    }
}

/// 1D-CNN regressor with the FC-expand + reshape front end.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cnn1d {
    cfg: Cnn1dConfig,
    // Parameters. Shapes:
    //   w_expand: expand x d        b_expand: expand
    //   w_conv1:  c1 x c0 x k       b_conv1:  c1
    //   w_conv2:  c1 x c1 x k       b_conv2:  c1
    //   w_head:   head x flat       b_head:   head
    //   w_out:    m x head          b_out:    m
    w_expand: Tensor,
    b_expand: Tensor,
    w_conv1: Tensor,
    b_conv1: Tensor,
    w_conv2: Tensor,
    b_conv2: Tensor,
    w_head: Tensor,
    b_head: Tensor,
    w_out: Tensor,
    b_out: Tensor,
    x_scaler: Option<Scaler>,
    y_scaler: Option<Scaler>,
    n_features: usize,
    n_outputs: usize,
    fitted: bool,
}

impl Cnn1d {
    /// Creates an unfitted model.
    ///
    /// # Panics
    ///
    /// Panics unless `expand` is divisible by `channels`, the post-pool
    /// lengths stay positive, and `kernel` is odd.
    pub fn new(cfg: Cnn1dConfig) -> Self {
        assert_eq!(
            cfg.expand % cfg.channels,
            0,
            "expand must split into channels"
        );
        assert_eq!(cfg.kernel % 2, 1, "kernel must be odd for same-padding");
        let l0 = cfg.expand / cfg.channels;
        assert!(
            l0 >= 4 && l0.is_multiple_of(4),
            "signal length must be a positive multiple of 4"
        );
        Self {
            cfg,
            w_expand: Tensor::zeros(0),
            b_expand: Tensor::zeros(0),
            w_conv1: Tensor::zeros(0),
            b_conv1: Tensor::zeros(0),
            w_conv2: Tensor::zeros(0),
            b_conv2: Tensor::zeros(0),
            w_head: Tensor::zeros(0),
            b_head: Tensor::zeros(0),
            w_out: Tensor::zeros(0),
            b_out: Tensor::zeros(0),
            x_scaler: None,
            y_scaler: None,
            n_features: 0,
            n_outputs: 0,
            fitted: false,
        }
    }

    /// The paper's 1D-CNN surrogate (laptop-scale widths).
    pub fn paper_default() -> Self {
        Self::new(Cnn1dConfig::default())
    }

    /// Training configuration.
    pub fn config(&self) -> &Cnn1dConfig {
        &self.cfg
    }

    fn l0(&self) -> usize {
        self.cfg.expand / self.cfg.channels
    }

    fn l1(&self) -> usize {
        self.l0() / 2
    }

    fn l2(&self) -> usize {
        self.l0() / 4
    }

    fn flat_len(&self) -> usize {
        self.cfg.conv_channels * self.l2()
    }

    /// Lengths over `rows` rows of the expansion output, the conv1 output,
    /// the conv2 input and output, the flattened pool2 output and the head.
    fn act_lens(&self, rows: usize) -> [usize; 5] {
        let a1 = self.cfg.conv_channels * self.l0() * rows;
        [
            self.cfg.expand * rows,
            a1,
            a1 / 2,
            a1 / 4,
            self.cfg.head * rows,
        ]
    }

    fn conv1(&self) -> Conv<'_> {
        Conv {
            w: &self.w_conv1.data,
            b: &self.b_conv1.data,
            in_ch: self.cfg.channels,
            len: self.l0(),
            k: self.cfg.kernel,
        }
    }

    fn conv2(&self) -> Conv<'_> {
        Conv {
            w: &self.w_conv2.data,
            b: &self.b_conv2.data,
            in_ch: self.cfg.conv_channels,
            len: self.l1(),
            k: self.cfg.kernel,
        }
    }

    /// The parameter tensors, in optimizer order.
    fn params_mut(&mut self) -> [&mut Vec<f64>; 10] {
        [
            &mut self.w_expand.data,
            &mut self.b_expand.data,
            &mut self.w_conv1.data,
            &mut self.b_conv1.data,
            &mut self.w_conv2.data,
            &mut self.b_conv2.data,
            &mut self.w_head.data,
            &mut self.b_head.data,
            &mut self.w_out.data,
            &mut self.b_out.data,
        ]
    }

    /// The forward pass over the `acts.rows` standardized rows `x`, leaving
    /// the network output in `acts.out` as `[output][row]`. Each row's
    /// result is the same at any row count. `masks`, the rows'
    /// inverted-dropout head masks (row-major), drop head activations
    /// before the output layer.
    fn forward_rows<'a>(
        &self,
        x: impl Iterator<Item = &'a [f64]>,
        masks: Option<&[f64]>,
        acts: &mut BatchActs,
    ) {
        let (rows, s) = (acts.rows, self.cfg.leaky_slope);
        let [e_len, a1_len, p1_len, p2_len, h_len] = self.act_lens(rows);
        let BatchActs {
            e_pre,
            z1,
            p1,
            z2,
            p2,
            h_pre,
            out,
            ga,
            gb,
            rm,
            ..
        } = acts;
        for (r, row) in x.enumerate() {
            for (j, &v) in row.iter().enumerate() {
                rm[j * rows + r] = v;
            }
        }
        let e_pre = &mut e_pre[..e_len];
        dense_batch(
            &self.w_expand.data,
            &self.b_expand.data,
            &rm[..self.n_features * rows],
            e_pre,
            rows,
        );
        leaky_into(e_pre, s, &mut ga[..e_len]);
        self.conv1().forward(&ga[..e_len], &mut z1[..a1_len], rows);
        leaky_into(&z1[..a1_len], s, &mut gb[..a1_len]);
        avg_pool2_batch(&gb[..a1_len], rows, &mut p1[..p1_len]);
        self.conv2().forward(&p1[..p1_len], &mut z2[..p1_len], rows);
        leaky_into(&z2[..p1_len], s, &mut gb[..p1_len]);
        avg_pool2_batch(&gb[..p1_len], rows, &mut p2[..p2_len]);
        dense_batch(
            &self.w_head.data,
            &self.b_head.data,
            &p2[..p2_len],
            &mut h_pre[..h_len],
            rows,
        );
        let h = &mut gb[..h_len];
        leaky_into(&h_pre[..h_len], s, h);
        if let Some(masks) = masks {
            mask_rows(h, masks, rows);
        }
        dense_batch(
            &self.w_out.data,
            &self.b_out.data,
            h,
            &mut out[..self.n_outputs * rows],
            rows,
        );
    }

    /// One training chunk, batch-major: the forward and backward pass over
    /// the standardized rows `idx` of `xs`/`ys`, adding the parameter
    /// gradients of the squared error into the zeroed `grads`. `masks`
    /// holds the rows' inverted-dropout head masks, row-major.
    ///
    /// Every element keeps the arithmetic and summation order of running
    /// the rows one at a time: a weight or bias gradient sums over the
    /// rows in chunk order, then positions ascending; an input gradient
    /// sums over output features ascending (for a conv input, `oc`, then
    /// positions ascending). So the fitted weights do not depend on how
    /// rows are blocked. Terms with a zero output gradient add a signed
    /// zero to a sum that started at +0, which leaves it unchanged while
    /// the weights stay finite.
    fn train_chunk(
        &self,
        (xs, ys): (&Matrix, &Matrix),
        idx: &[usize],
        masks: Option<&[f64]>,
        acts: &mut BatchActs,
        grads: &mut CnnGrads,
    ) {
        acts.rows = idx.len();
        self.forward_rows(idx.iter().map(|&i| xs.row(i)), masks, acts);
        let (rows, s, d) = (acts.rows, self.cfg.leaky_slope, self.n_features);
        let (c0, c1, head) = (self.cfg.channels, self.cfg.conv_channels, self.cfg.head);
        let [e_len, a1_len, p1_len, p2_len, h_len] = self.act_lens(rows);
        let o_len = self.n_outputs * rows;
        let BatchActs {
            e_pre,
            z1,
            p1,
            z2,
            p2,
            h_pre,
            out,
            ga,
            gb,
            rm,
            acc,
            ..
        } = acts;
        let [w_expand, b_expand, w_conv1, b_conv1, w_conv2, b_conv2, w_head, b_head, w_out, b_out] =
            &mut grads.0;

        // Output layer; the dropped head activation is still in `gb`.
        for (o, (d_o, out_o)) in ga
            .chunks_exact_mut(rows)
            .zip(out[..o_len].chunks_exact(rows))
            .enumerate()
        {
            for ((dv, &p), &i) in d_o.iter_mut().zip(out_o).zip(idx) {
                *dv = 2.0 * (p - ys[(i, o)]);
            }
        }
        row_major(&gb[..h_len], head, rows, rm, |v| v);
        dense_weight_grads(&ga[..o_len], &rm[..h_len], (w_out, b_out), rows);
        dense_input_grad(&self.w_out.data, &ga[..o_len], &mut gb[..h_len], rows);
        if let Some(masks) = masks {
            mask_rows(&mut gb[..h_len], masks, rows);
        }
        mul_leaky_d(&mut gb[..h_len], &h_pre[..h_len], s);

        // Head layer.
        row_major(&p2[..p2_len], p2_len / rows, rows, rm, |v| v);
        dense_weight_grads(&gb[..h_len], &rm[..p2_len], (w_head, b_head), rows);
        dense_input_grad(&self.w_head.data, &gb[..h_len], &mut ga[..p2_len], rows);

        // Pool2 + conv2.
        unpool2_leaky_batch(&ga[..p2_len], &z2[..p1_len], s, rows, &mut gb[..p1_len]);
        row_major(&p1[..p1_len], c1, rows, rm, |v| v);
        self.conv2()
            .weight_grads(&gb[..p1_len], &rm[..p1_len], acc, (w_conv2, b_conv2), rows);
        self.conv2()
            .backward_input(&gb[..p1_len], &mut ga[..p1_len], rows);

        // Pool1 + conv1.
        unpool2_leaky_batch(&ga[..p1_len], &z1[..a1_len], s, rows, &mut gb[..a1_len]);
        row_major(&e_pre[..e_len], c0, rows, rm, |z| leaky(z, s));
        self.conv1()
            .weight_grads(&gb[..a1_len], &rm[..e_len], acc, (w_conv1, b_conv1), rows);
        self.conv1()
            .backward_input(&gb[..a1_len], &mut ga[..e_len], rows);

        // Expansion layer; its input gradient is not needed.
        mul_leaky_d(&mut ga[..e_len], &e_pre[..e_len], s);
        for (rm_r, &i) in rm.chunks_exact_mut(d).zip(idx) {
            rm_r.copy_from_slice(xs.row(i));
        }
        dense_weight_grads(&ga[..e_len], &rm[..d * rows], (w_expand, b_expand), rows);
    }

    /// The input-gradient chain of [`Cnn1d::train_chunk`], with its
    /// kernels and summation order but no dropout and no weight gradients,
    /// over the `acts.rows` rows that [`Cnn1d::forward_rows`] left in
    /// `acts`, at the output gradient in `acts.ga` (`[output][row]`).
    /// Returns the gradient with respect to the standardized input,
    /// `[feature][row]`. It reads only the forward pass's buffers, so one
    /// forward pass serves any number of backward passes.
    fn backward_input<'a>(&self, acts: &'a mut BatchActs) -> &'a [f64] {
        let (rows, s) = (acts.rows, self.cfg.leaky_slope);
        let [e_len, a1_len, p1_len, p2_len, h_len] = self.act_lens(rows);
        let BatchActs {
            e_pre,
            z1,
            z2,
            h_pre,
            ga,
            gb,
            rm,
            ..
        } = acts;
        let o_len = self.n_outputs * rows;
        dense_input_grad(&self.w_out.data, &ga[..o_len], &mut gb[..h_len], rows);
        mul_leaky_d(&mut gb[..h_len], &h_pre[..h_len], s);
        dense_input_grad(&self.w_head.data, &gb[..h_len], &mut ga[..p2_len], rows);
        unpool2_leaky_batch(&ga[..p2_len], &z2[..p1_len], s, rows, &mut gb[..p1_len]);
        self.conv2()
            .backward_input(&gb[..p1_len], &mut ga[..p1_len], rows);
        unpool2_leaky_batch(&ga[..p1_len], &z1[..a1_len], s, rows, &mut gb[..a1_len]);
        self.conv1()
            .backward_input(&gb[..a1_len], &mut ga[..e_len], rows);
        mul_leaky_d(&mut ga[..e_len], &e_pre[..e_len], s);
        let d_x = &mut rm[..self.n_features * rows];
        dense_input_grad(&self.w_expand.data, &ga[..e_len], d_x, rows);
        d_x
    }

    /// The forward pass over one raw input row, in a one-row workspace.
    fn forward_one(&self, x: &[f64], x_scaler: &Scaler) -> BatchActs {
        let mut row = x.to_vec();
        x_scaler.transform_row(&mut row);
        let mut acts = BatchActs::zeros_like(self, 1);
        self.forward_rows(std::iter::once(row.as_slice()), None, &mut acts);
        acts
    }

    /// The fitted scalers, after checking the model is fitted and `x` has
    /// its feature width.
    fn fitted_scalers(&self, x: &[f64]) -> Result<(&Scaler, &Scaler), MlError> {
        if !self.fitted {
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

/// Gradient accumulator mirroring the parameter tensors, in optimizer
/// order.
struct CnnGrads([Vec<f64>; 10]);

impl CnnGrads {
    fn zeros(lens: &[usize; 10]) -> Self {
        Self(lens.map(|n| vec![0.0; n]))
    }

    fn zero_fill(&mut self) {
        for t in &mut self.0 {
            t.fill(0.0);
        }
    }

    /// Element-wise accumulation; tensors are summed left-to-right by the
    /// caller, which keeps the chunk-order reduction a fixed association.
    fn add_in_place(&mut self, rhs: &CnnGrads) {
        for (t, r) in self.0.iter_mut().zip(&rhs.0) {
            for (a, b) in t.iter_mut().zip(r) {
                *a += b;
            }
        }
    }

    fn scale(&mut self, k: f64) {
        for v in self.0.iter_mut().flatten() {
            *v *= k;
        }
    }
}

impl Regressor for Cnn1d {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fit_with(data, &TrainContext::serial())
    }

    fn fit_with(&mut self, data: &Dataset, ctx: &TrainContext) -> Result<(), MlError> {
        let _span = isop_telemetry::span!(ctx.telemetry, "ml.fit.cnn");
        self.n_features = data.n_features();
        self.n_outputs = data.n_outputs();
        let cfg = self.cfg.clone();
        let (c0, c1, k) = (cfg.channels, cfg.conv_channels, cfg.kernel);
        let flat = self.flat_len();

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        self.w_expand = Tensor::init(cfg.expand * self.n_features, self.n_features, &mut rng);
        self.b_expand = Tensor::zeros(cfg.expand);
        self.w_conv1 = Tensor::init(c1 * c0 * k, c0 * k, &mut rng);
        self.b_conv1 = Tensor::zeros(c1);
        self.w_conv2 = Tensor::init(c1 * c1 * k, c1 * k, &mut rng);
        self.b_conv2 = Tensor::zeros(c1);
        self.w_head = Tensor::init(cfg.head * flat, flat, &mut rng);
        self.b_head = Tensor::zeros(cfg.head);
        self.w_out = Tensor::init(self.n_outputs * cfg.head, cfg.head, &mut rng);
        self.b_out = Tensor::zeros(self.n_outputs);

        let x_scaler = Scaler::fit(&data.x);
        let y_scaler = Scaler::fit(&data.y);
        let xs = x_scaler.transform(&data.x);
        let ys = y_scaler.transform(&data.y);

        let lens = self.params_mut().map(|p| p.len());
        let mut opts: Vec<Adam> = lens.iter().map(|&n| Adam::new(cfg.lr, n)).collect();

        let n = data.len();
        let bs = cfg.batch_size.clamp(1, n);
        let keep = 1.0 - cfg.dropout;
        let has_dropout = cfg.dropout > 0.0;
        let mut order: Vec<usize> = (0..n).collect();
        let threads = ctx.parallelism.threads;

        // Reusable training state: one workspace per worker, one gradient
        // partial per chunk, the reduced per-batch gradient, and the
        // pre-drawn head dropout masks for the whole minibatch.
        let mut workspaces: Vec<BatchActs> = Vec::new();
        let mut partials: Vec<CnnGrads> = Vec::new();
        let mut totals = CnnGrads::zeros(&lens);
        let mut head_masks = Matrix::zeros(0, 0);

        for epoch in 0..cfg.epochs {
            // Step decay mirroring the MLP schedule.
            let decay = if epoch * 4 >= cfg.epochs * 3 {
                0.25
            } else if epoch * 2 >= cfg.epochs {
                0.5
            } else {
                1.0
            };
            for opt in &mut opts {
                opt.set_learning_rate(cfg.lr * decay);
            }
            order.shuffle(&mut rng);
            for batch in order.chunks(bs) {
                // All randomness is drawn serially before the parallel
                // section: one inverted-dropout head mask per sample, in
                // sample order — the same stream the serial trainer drew.
                if has_dropout {
                    head_masks.reset(batch.len(), cfg.head);
                    for v in head_masks.as_mut_slice() {
                        *v = if rng.gen::<f64>() < keep {
                            1.0 / keep
                        } else {
                            0.0
                        };
                    }
                }

                // Chunk boundaries depend only on the batch length, never
                // the thread count, and every chunk sums its own partial,
                // so the chunk-order reduction below associates identically
                // at any parallelism width. Each worker runs a run of
                // consecutive chunks through its own workspace.
                let ranges = fixed_chunks(batch.len(), CNN_CHUNK_ROWS);
                ctx.telemetry.add(Counter::TrainChunks, ranges.len() as u64);
                let per_worker = ranges.len().div_ceil(threads.max(1));
                while partials.len() < ranges.len() {
                    partials.push(CnnGrads::zeros(&lens));
                }
                while workspaces.len() * per_worker < ranges.len() {
                    workspaces.push(BatchActs::zeros_like(self, CNN_CHUNK_ROWS));
                }
                let mut work: Vec<_> = workspaces
                    .iter_mut()
                    .zip(partials[..ranges.len()].chunks_mut(per_worker))
                    .zip(ranges.chunks(per_worker))
                    .collect();
                let model: &Cnn1d = self;
                let masks = has_dropout.then(|| head_masks.as_slice());
                par_map_mut(threads, &mut work, |_, ((ws, parts), chunks)| {
                    for (grads, &(r0, r1)) in parts.iter_mut().zip(chunks.iter()) {
                        grads.zero_fill();
                        let mask = masks.map(|m| &m[r0 * cfg.head..r1 * cfg.head]);
                        model.train_chunk((&xs, &ys), &batch[r0..r1], mask, ws, grads);
                    }
                });

                // Reduce chunk partials in chunk order (fixed association),
                // then take the optimizer steps serially.
                totals.zero_fill();
                for part in &partials[..ranges.len()] {
                    totals.add_in_place(part);
                }
                totals.scale(1.0 / batch.len() as f64);
                for ((opt, p), g) in opts.iter_mut().zip(self.params_mut()).zip(&totals.0) {
                    opt.step(p, g);
                }
            }
        }

        if !self.w_expand.data.iter().all(|v| v.is_finite()) {
            return Err(MlError::Diverged);
        }
        self.x_scaler = Some(x_scaler);
        self.y_scaler = Some(y_scaler);
        self.fitted = true;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if !self.fitted {
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
        let y_scaler = self.y_scaler.as_ref().ok_or(MlError::NotFitted)?;
        let n = x.rows();
        let mut out = Matrix::zeros(n, self.n_outputs);
        let mut acts = BatchActs::zeros_like(self, n.min(PREDICT_BLOCK_ROWS));
        for r0 in (0..n).step_by(PREDICT_BLOCK_ROWS) {
            acts.rows = PREDICT_BLOCK_ROWS.min(n - r0);
            self.forward_rows((r0..r0 + acts.rows).map(|r| xs.row(r)), None, &mut acts);
            for (o, col) in acts
                .out
                .chunks_exact(acts.rows)
                .take(self.n_outputs)
                .enumerate()
            {
                for (r, &v) in col.iter().enumerate() {
                    out[(r0 + r, o)] = v;
                }
            }
        }
        Ok(y_scaler.inverse_transform(&out))
    }

    fn name(&self) -> &'static str {
        "1D-CNN"
    }
}

impl Differentiable for Cnn1d {
    /// One forward pass, then one input-only backward pass per output with
    /// a one-hot cotangent: row `o` is bit-identical to
    /// [`Differentiable::value_and_vjp`] with cotangent `e_o`.
    fn input_jacobian(&self, x: &[f64]) -> Result<Matrix, MlError> {
        let (x_scaler, y_scaler) = self.fitted_scalers(x)?;
        let mut acts = self.forward_one(x, x_scaler);
        let m = self.n_outputs;
        let mut jac = Matrix::zeros(m, self.n_features);
        for o in 0..m {
            for ((d, i), sd) in acts.ga[..m].iter_mut().zip(0..).zip(y_scaler.stds()) {
                *d = f64::from(u8::from(i == o)) * sd;
            }
            let d_x = self.backward_input(&mut acts);
            for ((j, g), sd) in jac.row_mut(o).iter_mut().zip(d_x).zip(x_scaler.stds()) {
                *j = g / sd;
            }
        }
        Ok(jac)
    }

    /// One forward pass and one input-only backward pass: no weight
    /// gradients and no `m x d` Jacobian. The prediction is de-scaled
    /// exactly as [`Regressor::predict`] does it.
    fn value_and_vjp(
        &self,
        x: &[f64],
        cotangent: &dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError> {
        let (x_scaler, y_scaler) = self.fitted_scalers(x)?;
        let mut acts = self.forward_one(x, x_scaler);
        let m = self.n_outputs;
        let y: Vec<f64> = acts.out[..m]
            .iter()
            .zip(y_scaler.stds().iter().zip(y_scaler.means()))
            .map(|(v, (sd, mean))| v * sd + mean)
            .collect();

        let dy = cotangent(&y);
        assert_eq!(dy.len(), m, "one cotangent per output");
        for ((d, dyv), sd) in acts.ga[..m].iter_mut().zip(&dy).zip(y_scaler.stds()) {
            *d = dyv * sd;
        }
        let grad = self
            .backward_input(&mut acts)
            .iter()
            .zip(x_scaler.stds())
            .map(|(g, sd)| g / sd)
            .collect();
        Ok((y, grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn tiny_cfg() -> Cnn1dConfig {
        Cnn1dConfig {
            expand: 32,
            channels: 4,
            conv_channels: 8,
            kernel: 3,
            head: 16,
            epochs: 150,
            batch_size: 32,
            lr: 3e-3,
            leaky_slope: 0.01,
            dropout: 0.0,
            seed: 2,
        }
    }

    fn curve_dataset(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    i as f64 / n as f64 * 2.0 - 1.0,
                    ((i * 7) % n) as f64 / n as f64,
                ]
            })
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| (3.0 * r[0]).sin() + r[1] * r[1])
            .collect();
        Dataset::new(Matrix::from_rows(&rows), Matrix::column(&ys)).unwrap()
    }

    #[test]
    fn fits_nonlinear_curve() {
        let d = curve_dataset(200);
        let mut m = Cnn1d::new(tiny_cfg());
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        let score = r2(&d.y.col_vec(0), &pred.col_vec(0));
        assert!(score > 0.9, "r2 = {score}");
    }

    #[test]
    fn input_jacobian_matches_finite_differences() {
        let d = curve_dataset(150);
        let mut m = Cnn1d::new(tiny_cfg());
        m.fit(&d).unwrap();
        let x0 = [0.3, 0.5];
        let jac = m.input_jacobian(&x0).unwrap();
        for c in 0..2 {
            let h = 1e-5;
            let mut hi = x0.to_vec();
            let mut lo = x0.to_vec();
            hi[c] += h;
            lo[c] -= h;
            let ph = m.predict(&Matrix::from_rows(&[hi])).unwrap()[(0, 0)];
            let pl = m.predict(&Matrix::from_rows(&[lo])).unwrap()[(0, 0)];
            let fd = (ph - pl) / (2.0 * h);
            assert!(
                (jac[(0, c)] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "dim {c}: analytic {} vs fd {fd}",
                jac[(0, c)]
            );
        }
    }

    #[test]
    fn multi_output_training() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 100.0 - 1.0]).collect();
        let ys: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0] * r[0], -r[0]]).collect();
        let d = Dataset::new(Matrix::from_rows(&rows), Matrix::from_rows(&ys)).unwrap();
        let mut m = Cnn1d::new(tiny_cfg());
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.9);
        assert!(r2(&d.y.col_vec(1), &pred.col_vec(1)) > 0.95);
    }

    /// A model at the optimize benchmark's widths (expand 192, head 64),
    /// briefly fitted on a 15-feature, 3-output dataset, and a probe
    /// matrix of 300 rows that also reach outside the training range.
    fn wide_model_and_probe() -> (Cnn1d, Matrix) {
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
        let mut m = Cnn1d::new(Cnn1dConfig {
            expand: 192,
            channels: 8,
            conv_channels: 16,
            head: 64,
            epochs: 2,
            dropout: 0.02,
            ..Cnn1dConfig::default()
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
        for n in [1, 2, 3, 8, 9, 64, 300] {
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

    /// The hash of every parameter, in parameter order.
    fn param_hash(m: &Cnn1d) -> u64 {
        let tensors = [
            &m.w_expand,
            &m.b_expand,
            &m.w_conv1,
            &m.b_conv1,
            &m.w_conv2,
            &m.b_conv2,
            &m.w_head,
            &m.b_head,
            &m.w_out,
            &m.b_out,
        ];
        hash_bits(tensors.iter().flat_map(|t| &t.data))
    }

    /// The parameter hash and the first output's bits on the first three
    /// rows of `probe`.
    fn fit_pin(m: &Cnn1d, probe: &Matrix) -> (u64, [u64; 3]) {
        let rows: Vec<Vec<f64>> = (0..3).map(|r| probe.row(r).to_vec()).collect();
        let pred = m.predict(&Matrix::from_rows(&rows)).unwrap();
        (param_hash(m), [0, 1, 2].map(|r| pred[(r, 0)].to_bits()))
    }

    /// Fitted weights and predictions are pinned bit for bit, so a change
    /// to the training kernel that moves any rounding fails here. The pins
    /// cover dropout on the optimize widths, the tiny config without
    /// dropout, and a kernel-5 fit whose minibatch leaves a short tail
    /// chunk and reaches every tap range of both conv layers.
    #[test]
    fn fitted_weights_are_pinned() {
        let (wide, probe) = wide_model_and_probe();
        let got_wide = fit_pin(&wide, &probe);

        let d = curve_dataset(100);
        let mut tiny = Cnn1d::new(Cnn1dConfig {
            epochs: 6,
            ..tiny_cfg()
        });
        tiny.fit(&d).unwrap();
        let got_tiny = fit_pin(&tiny, &d.x);

        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = i as f64 / 25.0 - 1.0;
                vec![t, (2.0 * t).cos(), t * t * t]
            })
            .collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![r[0] * r[1], r[2] - r[0]])
            .collect();
        let d5 = Dataset::new(Matrix::from_rows(&rows), Matrix::from_rows(&ys)).unwrap();
        let mut k5 = Cnn1d::new(Cnn1dConfig {
            expand: 64,
            channels: 4,
            conv_channels: 6,
            kernel: 5,
            head: 12,
            epochs: 4,
            batch_size: 21,
            dropout: 0.1,
            seed: 5,
            ..Cnn1dConfig::default()
        });
        k5.fit(&d5).unwrap();
        let got_k5 = fit_pin(&k5, &d5.x);

        let want = [
            (
                0x85b2_a4bf_83b8_766f,
                [
                    0x3fae_c5ad_1ec3_7682,
                    0x3fae_eec8_476b_447b,
                    0x3fa9_fbf3_f874_c507,
                ],
            ),
            (
                0x36ac_0b2c_a30f_f487,
                [
                    0x3fc0_d5dd_c579_a786,
                    0x3fc2_3fbf_e923_ea02,
                    0x3fc3_b768_5863_d310,
                ],
            ),
            (
                0xa205_e65a_7e64_001a,
                [
                    0x3f99_8f81_1dde_619c,
                    0x3f97_e016_4bce_c178,
                    0x3f96_6d8c_bc22_9788,
                ],
            ),
        ];
        assert_eq!(
            [got_wide, got_tiny, got_k5],
            want,
            "{:#x?}",
            [got_wide, got_tiny, got_k5]
        );
    }

    /// One-row predictions and VJP gradients over the 300-row probe are
    /// pinned by hash, so a change to the inference or input-gradient
    /// kernels that moves any rounding fails here.
    #[test]
    fn one_row_predict_and_vjp_are_pinned() {
        let (m, probe) = wide_model_and_probe();
        let (mut preds, mut grads) = (Vec::new(), Vec::new());
        for r in 0..probe.rows() {
            let x = probe.row(r);
            preds.extend_from_slice(m.predict(&Matrix::from_rows(&[x.to_vec()])).unwrap().row(0));
            let cotangent =
                |y: &[f64]| y.iter().zip([1.0, -0.5, 2.0]).map(|(v, w)| v * w).collect();
            grads.extend(m.value_and_vjp(x, &cotangent).unwrap().1);
        }
        let got = (hash_bits(&preds), hash_bits(&grads));
        assert_eq!(
            got,
            (0x0c10_e264_2662_9e44, 0xb4b4_8317_10bc_f78b),
            "{got:#x?}"
        );
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
    fn unfitted_errors() {
        let m = Cnn1d::paper_default();
        assert_eq!(m.predict(&Matrix::zeros(1, 2)), Err(MlError::NotFitted));
        assert_eq!(m.input_jacobian(&[0.0, 0.0]), Err(MlError::NotFitted));
        assert_eq!(
            m.value_and_vjp(&[0.0, 0.0], &|y| y.to_vec()),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    #[should_panic(expected = "expand must split into channels")]
    fn bad_geometry_panics() {
        let _ = Cnn1d::new(Cnn1dConfig {
            expand: 30,
            channels: 4,
            ..Cnn1dConfig::default()
        });
    }

    #[test]
    fn deterministic_per_seed() {
        let d = curve_dataset(60);
        let mut cfg = tiny_cfg();
        cfg.epochs = 5;
        let mut a = Cnn1d::new(cfg.clone());
        let mut b = Cnn1d::new(cfg);
        a.fit(&d).unwrap();
        b.fit(&d).unwrap();
        assert_eq!(a.predict(&d.x).unwrap(), b.predict(&d.x).unwrap());
    }

    #[test]
    fn dropout_variant_trains() {
        let d = curve_dataset(150);
        let mut cfg = tiny_cfg();
        cfg.dropout = 0.1;
        cfg.epochs = 200;
        let mut m = Cnn1d::new(cfg);
        m.fit(&d).unwrap();
        let pred = m.predict(&d.x).unwrap();
        assert!(r2(&d.y.col_vec(0), &pred.col_vec(0)) > 0.8);
    }
}
