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
//! Inference on more than one row (each Harmonica stage scores its draws in
//! one call) runs a batch-major kernel: activations are laid out
//! `[feature][row]` in blocks of rows, so every inner loop runs over rows,
//! and the conv padding test is hoisted to each output position's tap
//! range. Each output element keeps the summation order of the row-wise
//! pass that training and the VJP use, so every row of a batch prediction
//! is bit-identical to predicting that row alone.

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

/// `out = v^T * w` for a row-major `w` with `v.len()` rows of `out.len()`
/// columns: the input gradient of a dense layer at output gradient `v`.
fn row_combination(w: &[f64], v: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (&g, row) in v.iter().zip(w.chunks_exact(out.len())) {
        for (o, wv) in out.iter_mut().zip(row) {
            *o += g * wv;
        }
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

/// Per-sample forward caches used by backprop, preallocated once and
/// refilled by [`Cnn1d::forward_sample_into`] so the per-sample hot loop
/// is allocation-free.
struct Caches {
    x: Vec<f64>,
    e_pre: Vec<f64>,
    e_act: Vec<f64>,
    z1: Vec<f64>,
    a1: Vec<f64>,
    p1: Vec<f64>,
    z2: Vec<f64>,
    a2: Vec<f64>,
    p2: Vec<f64>,
    h_pre: Vec<f64>,
    h_act: Vec<f64>,
    out: Vec<f64>,
}

impl Caches {
    /// Buffers sized for `model` (which must already know its data shape).
    fn zeros_like(model: &Cnn1d) -> Self {
        let c1 = model.cfg.conv_channels;
        let (l0, l1, l2) = (model.l0(), model.l1(), model.l2());
        Self {
            x: vec![0.0; model.n_features],
            e_pre: vec![0.0; model.cfg.expand],
            e_act: vec![0.0; model.cfg.expand],
            z1: vec![0.0; c1 * l0],
            a1: vec![0.0; c1 * l0],
            p1: vec![0.0; c1 * l1],
            z2: vec![0.0; c1 * l1],
            a2: vec![0.0; c1 * l1],
            p2: vec![0.0; c1 * l2],
            h_pre: vec![0.0; model.cfg.head],
            h_act: vec![0.0; model.cfg.head],
            out: vec![0.0; model.n_outputs],
        }
    }
}

/// Reusable backward-pass buffers; every field is (re)zeroed at its point
/// of use inside [`Cnn1d::backward_sample`].
struct BackScratch {
    d_h: Vec<f64>,
    d_p2: Vec<f64>,
    d_a2: Vec<f64>,
    d_p1: Vec<f64>,
    d_a1: Vec<f64>,
    d_e: Vec<f64>,
    d_x: Vec<f64>,
}

impl BackScratch {
    fn zeros_like(model: &Cnn1d) -> Self {
        let (c0, c1) = (model.cfg.channels, model.cfg.conv_channels);
        let (l0, l1, l2) = (model.l0(), model.l1(), model.l2());
        Self {
            d_h: vec![0.0; model.cfg.head],
            d_p2: vec![0.0; c1 * l2],
            d_a2: vec![0.0; c1 * l1],
            d_p1: vec![0.0; c1 * l1],
            d_a1: vec![0.0; c1 * l0],
            d_e: vec![0.0; c0 * l0],
            d_x: vec![0.0; model.n_features],
        }
    }
}

/// Rows per block of the batch-major inference kernel: a block's
/// activations stay cache-resident while the inner loops still run over
/// enough rows to vectorize.
const PREDICT_BLOCK_ROWS: usize = 64;

/// Batch-major activations for [`Cnn1d::forward_batch`], one buffer per
/// layer, each laid out `[feature][row]` for up to `rows` rows. The
/// activation functions run in place, so each layer needs one buffer.
struct BatchActs {
    rows: usize,
    x: Vec<f64>,
    e: Vec<f64>,
    a1: Vec<f64>,
    p1: Vec<f64>,
    a2: Vec<f64>,
    p2: Vec<f64>,
    h: Vec<f64>,
    out: Vec<f64>,
}

impl BatchActs {
    fn zeros_like(model: &Cnn1d, rows: usize) -> Self {
        let c1 = model.cfg.conv_channels;
        let (l0, l1, l2) = (model.l0(), model.l1(), model.l2());
        Self {
            rows,
            x: vec![0.0; model.n_features * rows],
            e: vec![0.0; model.cfg.expand * rows],
            a1: vec![0.0; c1 * l0 * rows],
            p1: vec![0.0; c1 * l1 * rows],
            a2: vec![0.0; c1 * l1 * rows],
            p2: vec![0.0; c1 * l2 * rows],
            h: vec![0.0; model.cfg.head * rows],
            out: vec![0.0; model.n_outputs * rows],
        }
    }
}

/// Batch-major dense layer:
/// `out[o][r] = b[o] + sum_j w[o][j] * input[j][r]`, summed over `j` in
/// ascending order — the order of the row-wise loops.
fn dense_batch(w: &[f64], b: &[f64], input: &[f64], out: &mut [f64], rows: usize) {
    let n_in = input.len() / rows;
    for ((o_row, w_row), &bias) in out.chunks_exact_mut(rows).zip(w.chunks_exact(n_in)).zip(b) {
        o_row.fill(bias);
        for (&wv, in_row) in w_row.iter().zip(input.chunks_exact(rows)) {
            for (o, &v) in o_row.iter_mut().zip(in_row) {
                *o += wv * v;
            }
        }
    }
}

/// Leaky ReLU over a whole buffer, in place.
fn leaky_in_place(v: &mut [f64], s: f64) {
    for x in v {
        *x = leaky(*x, s);
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

    /// `out[oc][p] = b[oc] + sum_ic sum_dk w[oc][ic][dk] * input[ic][p + dk - pad]`.
    #[allow(clippy::too_many_arguments)]
    fn conv_forward(
        w: &[f64],
        b: &[f64],
        input: &[f64],
        out: &mut [f64],
        in_ch: usize,
        out_ch: usize,
        len: usize,
        k: usize,
    ) {
        let pad = k / 2;
        for oc in 0..out_ch {
            for p in 0..len {
                let mut acc = b[oc];
                for ic in 0..in_ch {
                    let w_base = (oc * in_ch + ic) * k;
                    let in_base = ic * len;
                    for dk in 0..k {
                        let idx = p + dk;
                        if idx < pad || idx - pad >= len {
                            continue;
                        }
                        acc += w[w_base + dk] * input[in_base + idx - pad];
                    }
                }
                out[oc * len + p] = acc;
            }
        }
    }

    /// Accumulates parameter gradients and the input gradient of a conv layer.
    #[allow(clippy::too_many_arguments)]
    fn conv_backward(
        w: &[f64],
        d_out: &[f64],
        input: &[f64],
        gw: &mut [f64],
        gb: &mut [f64],
        d_in: &mut [f64],
        in_ch: usize,
        out_ch: usize,
        len: usize,
        k: usize,
    ) {
        let pad = k / 2;
        for oc in 0..out_ch {
            for p in 0..len {
                let g = d_out[oc * len + p];
                if g == 0.0 {
                    continue;
                }
                gb[oc] += g;
                for ic in 0..in_ch {
                    let w_base = (oc * in_ch + ic) * k;
                    let in_base = ic * len;
                    for dk in 0..k {
                        let idx = p + dk;
                        if idx < pad || idx - pad >= len {
                            continue;
                        }
                        gw[w_base + dk] += g * input[in_base + idx - pad];
                        d_in[in_base + idx - pad] += g * w[w_base + dk];
                    }
                }
            }
        }
    }

    /// [`Cnn1d::conv_backward`] without the parameter gradients: adds only
    /// the input gradient into `d_in`. Each kernel tap is one contiguous
    /// run over the positions it reaches inside the padding, so the inner
    /// loop carries no bounds branch.
    fn conv_backward_input(
        w: &[f64],
        d_out: &[f64],
        d_in: &mut [f64],
        in_ch: usize,
        len: usize,
        k: usize,
    ) {
        let pad = k / 2;
        for (taps, g) in w.chunks_exact(in_ch * k).zip(d_out.chunks_exact(len)) {
            for (tap, d) in taps.chunks_exact(k).zip(d_in.chunks_exact_mut(len)) {
                for (dk, &wv) in tap.iter().enumerate() {
                    // Output position p reads input p + dk - pad.
                    let p0 = pad.saturating_sub(dk);
                    let p1 = (len + pad).saturating_sub(dk).min(len);
                    if p0 >= p1 {
                        continue;
                    }
                    let q0 = p0 + dk - pad;
                    for (dv, gv) in d[q0..q0 + (p1 - p0)].iter_mut().zip(&g[p0..p1]) {
                        *dv += gv * wv;
                    }
                }
            }
        }
    }

    fn avg_pool2(input: &[f64], ch: usize, len: usize, out: &mut [f64]) {
        let half = len / 2;
        for c in 0..ch {
            for p in 0..half {
                out[c * half + p] = 0.5 * (input[c * len + 2 * p] + input[c * len + 2 * p + 1]);
            }
        }
    }

    fn avg_unpool2(d_out: &[f64], ch: usize, len: usize, d_in: &mut [f64]) {
        let half = len / 2;
        for c in 0..ch {
            for p in 0..half {
                let g = 0.5 * d_out[c * half + p];
                d_in[c * len + 2 * p] += g;
                d_in[c * len + 2 * p + 1] += g;
            }
        }
    }

    /// Batch-major [`Cnn1d::conv_forward`]: `input` is `[ic][pos][row]`
    /// and `out` is `[oc][pos][row]`. The padding test is hoisted to the
    /// tap range of each output position, and every output element still
    /// sums its bias, then `ic` ascending, then `dk` ascending.
    #[allow(clippy::too_many_arguments)]
    fn conv_forward_batch(
        w: &[f64],
        b: &[f64],
        input: &[f64],
        out: &mut [f64],
        in_ch: usize,
        len: usize,
        k: usize,
        rows: usize,
    ) {
        let pad = k / 2;
        for ((o_ch, taps), &bias) in out
            .chunks_exact_mut(len * rows)
            .zip(w.chunks_exact(in_ch * k))
            .zip(b)
        {
            for (p, o_row) in o_ch.chunks_exact_mut(rows).enumerate() {
                // Output position p reads input p + dk - pad.
                let dk0 = pad.saturating_sub(p);
                let dk1 = k.min(len + pad - p);
                o_row.fill(bias);
                for (tap, in_ch_rows) in taps.chunks_exact(k).zip(input.chunks_exact(len * rows)) {
                    for (dk, &wv) in tap.iter().enumerate().take(dk1).skip(dk0) {
                        let q = p + dk - pad;
                        let in_row = &in_ch_rows[q * rows..(q + 1) * rows];
                        for (o, &v) in o_row.iter_mut().zip(in_row) {
                            *o += wv * v;
                        }
                    }
                }
            }
        }
    }

    /// Batch-major [`Cnn1d::avg_pool2`] over `[c][pos][row]` buffers.
    fn avg_pool2_batch(input: &[f64], rows: usize, out: &mut [f64]) {
        for (o_pair, in_pair) in out.chunks_exact_mut(rows).zip(input.chunks_exact(2 * rows)) {
            let (even, odd) = in_pair.split_at(rows);
            for ((o, &a), &b) in o_pair.iter_mut().zip(even).zip(odd) {
                *o = 0.5 * (a + b);
            }
        }
    }

    /// Inference forward pass over rows `r0..r0 + acts.rows` of the
    /// standardized matrix `xs`, leaving the network output in `acts.out`
    /// as `[output][row]`. Every element is computed with the arithmetic
    /// and summation order of [`Cnn1d::forward_sample_into`], so each row
    /// is bit-identical to it at any batch size.
    fn forward_batch(&self, xs: &Matrix, r0: usize, acts: &mut BatchActs) {
        let cfg = &self.cfg;
        let (c0, c1, k) = (cfg.channels, cfg.conv_channels, cfg.kernel);
        let (l0, l1) = (self.l0(), self.l1());
        let s = cfg.leaky_slope;
        let rows = acts.rows;
        let d = self.n_features;

        let x = &mut acts.x[..d * rows];
        for r in 0..rows {
            for (j, &v) in xs.row(r0 + r).iter().enumerate() {
                x[j * rows + r] = v;
            }
        }
        let e = &mut acts.e[..cfg.expand * rows];
        dense_batch(&self.w_expand.data, &self.b_expand.data, x, e, rows);
        leaky_in_place(e, s);

        let a1 = &mut acts.a1[..c1 * l0 * rows];
        Self::conv_forward_batch(
            &self.w_conv1.data,
            &self.b_conv1.data,
            e,
            a1,
            c0,
            l0,
            k,
            rows,
        );
        leaky_in_place(a1, s);
        let p1 = &mut acts.p1[..c1 * l1 * rows];
        Self::avg_pool2_batch(a1, rows, p1);

        let a2 = &mut acts.a2[..c1 * l1 * rows];
        Self::conv_forward_batch(
            &self.w_conv2.data,
            &self.b_conv2.data,
            p1,
            a2,
            c1,
            l1,
            k,
            rows,
        );
        leaky_in_place(a2, s);
        let p2 = &mut acts.p2[..self.flat_len() * rows];
        Self::avg_pool2_batch(a2, rows, p2);

        let h = &mut acts.h[..cfg.head * rows];
        dense_batch(&self.w_head.data, &self.b_head.data, p2, h, rows);
        leaky_in_place(h, s);
        let out = &mut acts.out[..self.n_outputs * rows];
        dense_batch(&self.w_out.data, &self.b_out.data, h, out, rows);
    }

    /// Forward pass on a standardized sample, caching every intermediate
    /// into the reusable `c` (same arithmetic as the original allocating
    /// pass — `conv_forward` and the dense loops overwrite every element).
    fn forward_sample_into(&self, x: &[f64], c: &mut Caches) {
        let cfg = &self.cfg;
        let (c0, c1, k) = (cfg.channels, cfg.conv_channels, cfg.kernel);
        let (l0, l1) = (self.l0(), self.l1());
        let s = cfg.leaky_slope;

        c.x.clear();
        c.x.extend_from_slice(x);
        for (o, pre) in c.e_pre.iter_mut().enumerate() {
            let mut acc = self.b_expand.data[o];
            let base = o * self.n_features;
            for (j, xv) in x.iter().enumerate() {
                acc += self.w_expand.data[base + j] * xv;
            }
            *pre = acc;
        }
        for (a, &z) in c.e_act.iter_mut().zip(&c.e_pre) {
            *a = leaky(z, s);
        }

        Self::conv_forward(
            &self.w_conv1.data,
            &self.b_conv1.data,
            &c.e_act,
            &mut c.z1,
            c0,
            c1,
            l0,
            k,
        );
        for (a, &z) in c.a1.iter_mut().zip(&c.z1) {
            *a = leaky(z, s);
        }
        Self::avg_pool2(&c.a1, c1, l0, &mut c.p1);

        Self::conv_forward(
            &self.w_conv2.data,
            &self.b_conv2.data,
            &c.p1,
            &mut c.z2,
            c1,
            c1,
            l1,
            k,
        );
        for (a, &z) in c.a2.iter_mut().zip(&c.z2) {
            *a = leaky(z, s);
        }
        Self::avg_pool2(&c.a2, c1, l1, &mut c.p2);

        let flat = self.flat_len();
        for (o, pre) in c.h_pre.iter_mut().enumerate() {
            let mut acc = self.b_head.data[o];
            let base = o * flat;
            for (j, v) in c.p2.iter().enumerate() {
                acc += self.w_head.data[base + j] * v;
            }
            *pre = acc;
        }
        for (a, &z) in c.h_act.iter_mut().zip(&c.h_pre) {
            *a = leaky(z, s);
        }

        for (o, ov) in c.out.iter_mut().enumerate() {
            let mut acc = self.b_out.data[o];
            let base = o * cfg.head;
            for (j, v) in c.h_act.iter().enumerate() {
                acc += self.w_out.data[base + j] * v;
            }
            *ov = acc;
        }
    }

    /// Backward pass from `d_out` (gradient at the network output); adds
    /// parameter gradients into `grads` and leaves the input gradient in
    /// `scratch.d_x`. `head_mask` is the inverted-dropout mask applied to
    /// the head activation during training (`None` at inference).
    fn backward_sample(
        &self,
        caches: &Caches,
        d_out: &[f64],
        head_mask: Option<&[f64]>,
        grads: &mut CnnGrads,
        scratch: &mut BackScratch,
    ) {
        let cfg = &self.cfg;
        let (c0, c1, k) = (cfg.channels, cfg.conv_channels, cfg.kernel);
        let (l0, l1) = (self.l0(), self.l1());
        let s = cfg.leaky_slope;
        let flat = self.flat_len();

        // Output layer.
        scratch.d_h.fill(0.0);
        for (o, &g) in d_out.iter().enumerate() {
            grads.b_out[o] += g;
            let base = o * cfg.head;
            for (j, dh) in scratch.d_h.iter_mut().enumerate() {
                grads.w_out[base + j] += g * caches.h_act[j];
                *dh += g * self.w_out.data[base + j];
            }
        }
        if let Some(mask) = head_mask {
            for (dh, mk) in scratch.d_h.iter_mut().zip(mask) {
                *dh *= mk;
            }
        }
        for (j, dh) in scratch.d_h.iter_mut().enumerate() {
            *dh *= leaky_d(caches.h_pre[j], s);
        }

        // Head layer.
        scratch.d_p2.fill(0.0);
        for (o, &g) in scratch.d_h.iter().enumerate() {
            grads.b_head[o] += g;
            let base = o * flat;
            for (j, dp) in scratch.d_p2.iter_mut().enumerate() {
                grads.w_head[base + j] += g * caches.p2[j];
                *dp += g * self.w_head.data[base + j];
            }
        }

        // Pool2 + conv2.
        scratch.d_a2.fill(0.0);
        Self::avg_unpool2(&scratch.d_p2, c1, l1, &mut scratch.d_a2);
        for (j, da) in scratch.d_a2.iter_mut().enumerate() {
            *da *= leaky_d(caches.z2[j], s);
        }
        scratch.d_p1.fill(0.0);
        Self::conv_backward(
            &self.w_conv2.data,
            &scratch.d_a2,
            &caches.p1,
            &mut grads.w_conv2,
            &mut grads.b_conv2,
            &mut scratch.d_p1,
            c1,
            c1,
            l1,
            k,
        );

        // Pool1 + conv1.
        scratch.d_a1.fill(0.0);
        Self::avg_unpool2(&scratch.d_p1, c1, l0, &mut scratch.d_a1);
        for (j, da) in scratch.d_a1.iter_mut().enumerate() {
            *da *= leaky_d(caches.z1[j], s);
        }
        scratch.d_e.fill(0.0);
        Self::conv_backward(
            &self.w_conv1.data,
            &scratch.d_a1,
            &caches.e_act,
            &mut grads.w_conv1,
            &mut grads.b_conv1,
            &mut scratch.d_e,
            c0,
            c1,
            l0,
            k,
        );

        // Expansion layer.
        for (j, de) in scratch.d_e.iter_mut().enumerate() {
            *de *= leaky_d(caches.e_pre[j], s);
        }
        scratch.d_x.fill(0.0);
        for (o, &g) in scratch.d_e.iter().enumerate() {
            grads.b_expand[o] += g;
            let base = o * self.n_features;
            for (j, dx) in scratch.d_x.iter_mut().enumerate() {
                grads.w_expand[base + j] += g * caches.x[j];
                *dx += g * self.w_expand.data[base + j];
            }
        }
    }

    /// Input-only backward pass at inference: [`Cnn1d::backward_sample`]
    /// without a dropout mask and without any parameter-gradient write.
    /// Leaves the gradient with respect to the standardized input in
    /// `scratch.d_x`.
    fn backward_input(&self, caches: &Caches, d_out: &[f64], scratch: &mut BackScratch) {
        let cfg = &self.cfg;
        let (c0, c1, k) = (cfg.channels, cfg.conv_channels, cfg.kernel);
        let (l0, l1) = (self.l0(), self.l1());
        let s = cfg.leaky_slope;

        // Output and head layers.
        row_combination(&self.w_out.data, d_out, &mut scratch.d_h);
        for (dh, &z) in scratch.d_h.iter_mut().zip(&caches.h_pre) {
            *dh *= leaky_d(z, s);
        }
        row_combination(&self.w_head.data, &scratch.d_h, &mut scratch.d_p2);

        // Pool2 + conv2.
        scratch.d_a2.fill(0.0);
        Self::avg_unpool2(&scratch.d_p2, c1, l1, &mut scratch.d_a2);
        for (da, &z) in scratch.d_a2.iter_mut().zip(&caches.z2) {
            *da *= leaky_d(z, s);
        }
        scratch.d_p1.fill(0.0);
        Self::conv_backward_input(
            &self.w_conv2.data,
            &scratch.d_a2,
            &mut scratch.d_p1,
            c1,
            l1,
            k,
        );

        // Pool1 + conv1.
        scratch.d_a1.fill(0.0);
        Self::avg_unpool2(&scratch.d_p1, c1, l0, &mut scratch.d_a1);
        for (da, &z) in scratch.d_a1.iter_mut().zip(&caches.z1) {
            *da *= leaky_d(z, s);
        }
        scratch.d_e.fill(0.0);
        Self::conv_backward_input(
            &self.w_conv1.data,
            &scratch.d_a1,
            &mut scratch.d_e,
            c0,
            l0,
            k,
        );

        // Expansion layer.
        for (de, &z) in scratch.d_e.iter_mut().zip(&caches.e_pre) {
            *de *= leaky_d(z, s);
        }
        row_combination(&self.w_expand.data, &scratch.d_e, &mut scratch.d_x);
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

/// Gradient accumulator mirroring the parameter tensors.
struct CnnGrads {
    w_expand: Vec<f64>,
    b_expand: Vec<f64>,
    w_conv1: Vec<f64>,
    b_conv1: Vec<f64>,
    w_conv2: Vec<f64>,
    b_conv2: Vec<f64>,
    w_head: Vec<f64>,
    b_head: Vec<f64>,
    w_out: Vec<f64>,
    b_out: Vec<f64>,
}

impl CnnGrads {
    fn zeros_like(model: &Cnn1d) -> Self {
        Self {
            w_expand: vec![0.0; model.w_expand.data.len()],
            b_expand: vec![0.0; model.b_expand.data.len()],
            w_conv1: vec![0.0; model.w_conv1.data.len()],
            b_conv1: vec![0.0; model.b_conv1.data.len()],
            w_conv2: vec![0.0; model.w_conv2.data.len()],
            b_conv2: vec![0.0; model.b_conv2.data.len()],
            w_head: vec![0.0; model.w_head.data.len()],
            b_head: vec![0.0; model.b_head.data.len()],
            w_out: vec![0.0; model.w_out.data.len()],
            b_out: vec![0.0; model.b_out.data.len()],
        }
    }

    /// The tensors in parameter order (matching the optimizer order).
    fn fields(&self) -> [&Vec<f64>; 10] {
        [
            &self.w_expand,
            &self.b_expand,
            &self.w_conv1,
            &self.b_conv1,
            &self.w_conv2,
            &self.b_conv2,
            &self.w_head,
            &self.b_head,
            &self.w_out,
            &self.b_out,
        ]
    }

    fn fields_mut(&mut self) -> [&mut Vec<f64>; 10] {
        [
            &mut self.w_expand,
            &mut self.b_expand,
            &mut self.w_conv1,
            &mut self.b_conv1,
            &mut self.w_conv2,
            &mut self.b_conv2,
            &mut self.w_head,
            &mut self.b_head,
            &mut self.w_out,
            &mut self.b_out,
        ]
    }

    fn zero_fill(&mut self) {
        for t in self.fields_mut() {
            t.fill(0.0);
        }
    }

    /// Element-wise accumulation; tensors are summed left-to-right by the
    /// caller, which keeps the chunk-order reduction a fixed association.
    fn add_in_place(&mut self, rhs: &CnnGrads) {
        for (t, r) in self.fields_mut().into_iter().zip(rhs.fields()) {
            for (a, b) in t.iter_mut().zip(r) {
                *a += b;
            }
        }
    }

    fn scale(&mut self, k: f64) {
        for t in self.fields_mut() {
            for v in t.iter_mut() {
                *v *= k;
            }
        }
    }
}

/// Reusable workspace for one gradient chunk of the CNN's data-parallel
/// backprop: forward caches, backward scratch, and the chunk's gradient
/// partial — one slot per chunk, recycled every minibatch.
struct CnnChunkSlot {
    /// Sample range `[r0, r1)` into the current minibatch, set before
    /// dispatch.
    r0: usize,
    r1: usize,
    caches: Caches,
    scratch: BackScratch,
    d_out: Vec<f64>,
    grads: CnnGrads,
}

impl CnnChunkSlot {
    fn zeros_like(model: &Cnn1d) -> Self {
        Self {
            r0: 0,
            r1: 0,
            caches: Caches::zeros_like(model),
            scratch: BackScratch::zeros_like(model),
            d_out: vec![0.0; model.n_outputs],
            grads: CnnGrads::zeros_like(model),
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

        let mut opts: Vec<Adam> = [
            self.w_expand.data.len(),
            self.b_expand.data.len(),
            self.w_conv1.data.len(),
            self.b_conv1.data.len(),
            self.w_conv2.data.len(),
            self.b_conv2.data.len(),
            self.w_head.data.len(),
            self.b_head.data.len(),
            self.w_out.data.len(),
            self.b_out.data.len(),
        ]
        .iter()
        .map(|&n| Adam::new(cfg.lr, n))
        .collect();

        let n = data.len();
        let bs = cfg.batch_size.clamp(1, n);
        let keep = 1.0 - cfg.dropout;
        let has_dropout = cfg.dropout > 0.0;
        let mut order: Vec<usize> = (0..n).collect();
        let threads = ctx.parallelism.threads;

        // Reusable training state: one workspace slot per gradient chunk,
        // the reduced per-batch gradient, and the pre-drawn head dropout
        // masks for the whole minibatch.
        let mut slots: Vec<CnnChunkSlot> = Vec::new();
        let mut totals = CnnGrads::zeros_like(self);
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
                // the thread count, so the chunk-order reduction below
                // associates identically at any parallelism width.
                let ranges = fixed_chunks(batch.len(), CNN_CHUNK_ROWS);
                ctx.telemetry.add(Counter::TrainChunks, ranges.len() as u64);
                while slots.len() < ranges.len() {
                    slots.push(CnnChunkSlot::zeros_like(self));
                }
                for (slot, &(r0, r1)) in slots.iter_mut().zip(&ranges) {
                    slot.r0 = r0;
                    slot.r1 = r1;
                }

                let model: &Cnn1d = self;
                par_map_mut(threads, &mut slots[..ranges.len()], |_, slot| {
                    slot.grads.zero_fill();
                    for (off, &i) in batch[slot.r0..slot.r1].iter().enumerate() {
                        model.forward_sample_into(xs.row(i), &mut slot.caches);
                        // Inverted dropout on the head activation.
                        let mask: Option<&[f64]> = if has_dropout {
                            let m = head_masks.row(slot.r0 + off);
                            for (h, mk) in slot.caches.h_act.iter_mut().zip(m) {
                                *h *= mk;
                            }
                            // Recompute output with the dropped activations.
                            for (o, ov) in slot.caches.out.iter_mut().enumerate() {
                                let mut acc = model.b_out.data[o];
                                let base = o * model.cfg.head;
                                for (j, v) in slot.caches.h_act.iter().enumerate() {
                                    acc += model.w_out.data[base + j] * v;
                                }
                                *ov = acc;
                            }
                            Some(m)
                        } else {
                            None
                        };
                        for ((d, p), t) in
                            slot.d_out.iter_mut().zip(&slot.caches.out).zip(ys.row(i))
                        {
                            *d = 2.0 * (p - t);
                        }
                        model.backward_sample(
                            &slot.caches,
                            &slot.d_out,
                            mask,
                            &mut slot.grads,
                            &mut slot.scratch,
                        );
                    }
                });

                // Reduce chunk partials in chunk order (fixed association),
                // then take the optimizer steps serially.
                totals.zero_fill();
                for slot in &slots[..ranges.len()] {
                    totals.add_in_place(&slot.grads);
                }
                totals.scale(1.0 / batch.len() as f64);
                let mut it = opts.iter_mut();
                it.next()
                    .unwrap()
                    .step(&mut self.w_expand.data, &totals.w_expand);
                it.next()
                    .unwrap()
                    .step(&mut self.b_expand.data, &totals.b_expand);
                it.next()
                    .unwrap()
                    .step(&mut self.w_conv1.data, &totals.w_conv1);
                it.next()
                    .unwrap()
                    .step(&mut self.b_conv1.data, &totals.b_conv1);
                it.next()
                    .unwrap()
                    .step(&mut self.w_conv2.data, &totals.w_conv2);
                it.next()
                    .unwrap()
                    .step(&mut self.b_conv2.data, &totals.b_conv2);
                it.next()
                    .unwrap()
                    .step(&mut self.w_head.data, &totals.w_head);
                it.next()
                    .unwrap()
                    .step(&mut self.b_head.data, &totals.b_head);
                it.next().unwrap().step(&mut self.w_out.data, &totals.w_out);
                it.next().unwrap().step(&mut self.b_out.data, &totals.b_out);
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
        // Batch-major blocks of rows; each row's result is bit-identical
        // to the row-wise training forward pass, which a single row takes
        // directly because the batch kernel only pays off across rows.
        let n = x.rows();
        let mut out = Matrix::zeros(n, self.n_outputs);
        if n == 1 {
            let mut caches = Caches::zeros_like(self);
            self.forward_sample_into(xs.row(0), &mut caches);
            out.row_mut(0).copy_from_slice(&caches.out);
        } else {
            let mut acts = BatchActs::zeros_like(self, n.min(PREDICT_BLOCK_ROWS));
            for r0 in (0..n).step_by(PREDICT_BLOCK_ROWS) {
                acts.rows = PREDICT_BLOCK_ROWS.min(n - r0);
                self.forward_batch(&xs, r0, &mut acts);
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
        }
        Ok(y_scaler.inverse_transform(&out))
    }

    fn name(&self) -> &'static str {
        "1D-CNN"
    }
}

impl Differentiable for Cnn1d {
    fn input_jacobian(&self, x: &[f64]) -> Result<Matrix, MlError> {
        let (x_scaler, y_scaler) = self.fitted_scalers(x)?;
        let mut row = x.to_vec();
        x_scaler.transform_row(&mut row);
        let mut caches = Caches::zeros_like(self);
        self.forward_sample_into(&row, &mut caches);

        let mut jac = Matrix::zeros(self.n_outputs, self.n_features);
        let mut grads = CnnGrads::zeros_like(self);
        let mut scratch = BackScratch::zeros_like(self);
        let mut d_out = vec![0.0; self.n_outputs];
        for o in 0..self.n_outputs {
            d_out.fill(0.0);
            d_out[o] = 1.0;
            self.backward_sample(&caches, &d_out, None, &mut grads, &mut scratch);
            let sy = y_scaler.stds()[o];
            for (c, g) in scratch.d_x.iter().enumerate() {
                jac[(o, c)] = g * sy / x_scaler.stds()[c];
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
        let mut row = x.to_vec();
        x_scaler.transform_row(&mut row);
        let mut caches = Caches::zeros_like(self);
        self.forward_sample_into(&row, &mut caches);
        let y: Vec<f64> = caches
            .out
            .iter()
            .zip(y_scaler.stds().iter().zip(y_scaler.means()))
            .map(|(v, (sd, mean))| v * sd + mean)
            .collect();

        let dy = cotangent(&y);
        assert_eq!(dy.len(), self.n_outputs, "one cotangent per output");
        let d_out: Vec<f64> = dy
            .iter()
            .zip(y_scaler.stds())
            .map(|(d, sd)| d * sd)
            .collect();
        let mut scratch = BackScratch::zeros_like(self);
        self.backward_input(&caches, &d_out, &mut scratch);
        let grad = scratch
            .d_x
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

    /// The batch-major kernel reproduces the row-wise forward pass bit
    /// for bit at every batch size, and `predict` (which runs it in
    /// blocks) matches both the row-wise pass and the prediction half of
    /// the fused value-and-gradient call.
    #[test]
    fn batch_kernel_is_bit_identical_to_the_row_pass() {
        let (m, probe) = wide_model_and_probe();
        let xs = m.x_scaler.as_ref().unwrap().transform(&probe);
        let mut caches = Caches::zeros_like(&m);
        for n in [1, 2, 3, 64, 300] {
            let mut acts = BatchActs::zeros_like(&m, n);
            m.forward_batch(&xs, 0, &mut acts);
            for r in 0..n {
                m.forward_sample_into(xs.row(r), &mut caches);
                let col: Vec<f64> = (0..m.n_outputs).map(|o| acts.out[o * n + r]).collect();
                assert_eq!(bits(&col), bits(&caches.out), "batch {n}, row {r}");
            }

            let batch =
                Matrix::from_rows(&(0..n).map(|r| probe.row(r).to_vec()).collect::<Vec<_>>());
            let pred = m.predict(&batch).unwrap();
            for r in 0..n {
                let single = m
                    .predict(&Matrix::from_rows(&[probe.row(r).to_vec()]))
                    .unwrap();
                assert_eq!(bits(pred.row(r)), bits(single.row(0)), "batch {n}, row {r}");
                let (y, _) = m.value_and_vjp(probe.row(r), &|y| y.to_vec()).unwrap();
                assert_eq!(bits(pred.row(r)), bits(&y), "batch {n}, row {r} vs fused");
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
