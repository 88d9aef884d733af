//! The neural-network core shared by [`Mlp`](super::Mlp) and
//! [`Cnn1d`](super::Cnn1d): batch-major dense kernels, leaky-ReLU and
//! dropout helpers, the minibatch trainer, the blocked predict, and the
//! input-gradient (VJP) and Jacobian passes.
//!
//! A model supplies only its layer stack, as a [`Network`]: a workspace,
//! a forward pass, a training chunk and an input-only backward pass over
//! batch-major buffers laid out `[feature][row]`. Everything here drives
//! those passes, so one kernel per layer kind serves every row count: a
//! Harmonica stage's 300 rows, a training chunk, and the single row of a
//! Hyperband probe or a VJP.
//!
//! No element's summation order depends on how rows are blocked or
//! chunked: a dense output sums from its bias over inputs ascending, an
//! input gradient from zero over outputs ascending, and a weight gradient
//! over the chunk's rows in order. So a batch prediction is bit-identical
//! to predicting each row alone, and the fitted weights do not depend on
//! the parallelism width.

use crate::dataset::{Dataset, Scaler};
use crate::linalg::Matrix;
use crate::optim::Adam;
use crate::train::TrainContext;
use crate::MlError;
use isop_exec::{fixed_chunks, par_map_mut};
use isop_telemetry::Counter;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Rows per block of [`predict`]: a block's activations stay
/// cache-resident while the inner loops still run over enough rows to
/// vectorize.
const PREDICT_BLOCK_ROWS: usize = 32;

/// Rows per register block of the dense kernels: the block's running sums
/// stay in registers for the whole inner loop.
const DENSE_BLOCK_ROWS: usize = 8;

/// A model's minibatch training settings, read by [`train`].
pub(super) struct Schedule {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f64,
    /// Dropout probability (0 disables the masks).
    pub dropout: f64,
    /// Widths of the activations that take an inverted-dropout mask, in
    /// the order their masks are drawn for each minibatch.
    pub mask_widths: Vec<usize>,
    /// Rows per gradient chunk: fixed, never a function of the thread
    /// count, so it is part of every fitted model's bits.
    pub chunk_rows: usize,
}

/// A network's layer stack over batch-major workspaces. `masks` holds one
/// row-major (`[row][feature]`) inverted-dropout mask slice per
/// [`Schedule::mask_widths`] entry, or none at all outside training.
pub(super) trait Network: Sync {
    /// Per-worker buffers for up to some number of rows.
    type Workspace: Send;

    /// The fitted input and output scalers, or `None` before `fit`.
    fn scalers(&self) -> Option<(&Scaler, &Scaler)>;

    /// The training settings.
    fn schedule(&self) -> Schedule;

    /// The parameter tensors, each with its own optimizer.
    fn params_mut(&mut self) -> Vec<&mut [f64]>;

    /// A workspace for up to `rows` rows.
    fn workspace(&self, rows: usize) -> Self::Workspace;

    /// The forward pass over the standardized rows `x`. Returns the network
    /// output, `[output][row]`; each row's result is the same at any row
    /// count.
    fn forward_rows<'a, 'w>(
        &self,
        x: impl ExactSizeIterator<Item = &'a [f64]>,
        masks: &[&[f64]],
        ws: &'w mut Self::Workspace,
    ) -> &'w [f64];

    /// One training chunk: the forward and backward pass over the
    /// standardized rows `idx` of `xs`/`ys`, adding the parameter gradients
    /// of the squared error (see [`squared_error_grad`]) into the zeroed
    /// `grads`, in [`Network::params_mut`] order.
    fn train_chunk(
        &self,
        data: (&Matrix, &Matrix),
        idx: &[usize],
        masks: &[&[f64]],
        ws: &mut Self::Workspace,
        grads: &mut [Vec<f64>],
    );

    /// The input-only backward pass, without dropout and weight gradients,
    /// over the rows the last [`Network::forward_rows`] left in `ws`, at
    /// the output gradient `d_out` (`[output][row]`). Returns the gradient
    /// with respect to the standardized input, `[feature][row]`. It reads
    /// only the forward pass's buffers, so one forward pass serves any
    /// number of backward passes.
    fn backward_input<'w>(&self, d_out: &[f64], ws: &'w mut Self::Workspace) -> &'w [f64];
}

#[inline]
pub(super) fn leaky(v: f64, s: f64) -> f64 {
    if v >= 0.0 {
        v
    } else {
        s * v
    }
}

#[inline]
pub(super) fn leaky_d(v: f64, s: f64) -> f64 {
    if v >= 0.0 {
        1.0
    } else {
        s
    }
}

/// `out = leaky(pre)` element-wise.
pub(super) fn leaky_into(pre: &[f64], s: f64, out: &mut [f64]) {
    for (a, &z) in out.iter_mut().zip(pre) {
        *a = leaky(z, s);
    }
}

/// `d *= leaky'(pre)` element-wise: a gradient back through leaky-ReLU.
pub(super) fn mul_leaky_d(d: &mut [f64], pre: &[f64], s: f64) {
    for (dv, &z) in d.iter_mut().zip(pre) {
        *dv *= leaky_d(z, s);
    }
}

/// Multiplies the batch-major `v` (`[feature][row]`) by the row-major
/// inverted-dropout masks (`[row][feature]`).
pub(super) fn mask_rows(v: &mut [f64], masks: &[f64], rows: usize) {
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
pub(super) fn row_major(
    cols: &[f64],
    ch: usize,
    rows: usize,
    rm: &mut [f64],
    f: impl Fn(f64) -> f64,
) {
    let len = cols.len() / (ch * rows);
    for (c, col) in cols.chunks_exact(len * rows).enumerate() {
        for (q, pos) in col.chunks_exact(rows).enumerate() {
            for (r, &v) in pos.iter().enumerate() {
                rm[(r * len + q) * ch + c] = f(v);
            }
        }
    }
}

/// Writes the `rows` input rows `x` batch-major: `out[j][r] = x[r][j]`.
pub(super) fn batch_major<'a>(x: impl Iterator<Item = &'a [f64]>, rows: usize, out: &mut [f64]) {
    for (r, row) in x.enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * rows + r] = v;
        }
    }
}

/// The squared error's output gradient before the `1/batch` mean:
/// `d[o][r] = 2 (out[o][r] - ys[idx[r]][o])`.
pub(super) fn squared_error_grad(out: &[f64], ys: &Matrix, idx: &[usize], d: &mut [f64]) {
    let rows = idx.len();
    for (o, (d_o, out_o)) in d
        .chunks_exact_mut(rows)
        .zip(out.chunks_exact(rows))
        .enumerate()
    {
        for ((dv, &p), &i) in d_o.iter_mut().zip(out_o).zip(idx) {
            *dv = 2.0 * (p - ys[(i, o)]);
        }
    }
}

/// Batch-major dense layer:
/// `out[o][r] = b[o] + sum_j w[o][j] * input[j][r]`, summed from the bias
/// over `j` ascending.
pub(super) fn dense_batch(w: &[f64], b: &[f64], input: &[f64], out: &mut [f64], rows: usize) {
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
pub(super) fn dense_input_grad(w: &[f64], d: &[f64], d_in: &mut [f64], rows: usize) {
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
pub(super) fn dense_weight_grads(
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

/// Trains `net` on `data` and returns the fitted input and output scalers.
///
/// Each epoch takes a step-decay learning rate (halved at 50 % and again
/// at 75 % of the epochs), shuffles the rows, and walks the minibatches.
/// All randomness of a minibatch is drawn serially before its parallel
/// section: one mask per [`Schedule::mask_widths`] entry, in that order,
/// each row-major over the minibatch. The minibatch splits into
/// [`Schedule::chunk_rows`] chunks on boundaries that depend only on its
/// length; each worker runs a run of consecutive chunks through its own
/// workspace, each chunk sums its own gradient partial, and the partials
/// are reduced in chunk order and scaled by `1/batch` before the serial
/// Adam steps. So the fitted parameters are bit-identical at every
/// `ctx.parallelism.threads` width.
///
/// # Errors
///
/// [`MlError::Diverged`] when a parameter ends non-finite.
pub(super) fn train<N: Network>(
    net: &mut N,
    data: &Dataset,
    rng: &mut StdRng,
    ctx: &TrainContext,
) -> Result<(Scaler, Scaler), MlError> {
    let spec = net.schedule();
    let x_scaler = Scaler::fit(&data.x);
    let y_scaler = Scaler::fit(&data.y);
    let xs = x_scaler.transform(&data.x);
    let ys = y_scaler.transform(&data.y);

    let lens: Vec<usize> = net.params_mut().iter().map(|p| p.len()).collect();
    let zeros = || -> Vec<Vec<f64>> { lens.iter().map(|&n| vec![0.0; n]).collect() };
    let mut opts: Vec<Adam> = lens.iter().map(|&n| Adam::new(spec.lr, n)).collect();
    let n = data.len();
    let bs = spec.batch_size.clamp(1, n);
    let keep = 1.0 - spec.dropout;
    let mask_widths = if spec.dropout > 0.0 {
        &spec.mask_widths[..]
    } else {
        &[]
    };
    let mut order: Vec<usize> = (0..n).collect();
    let threads = ctx.parallelism.threads;

    // Reusable training state: one workspace per worker, one gradient
    // partial per chunk, the reduced per-batch gradient, and the masks.
    let mut workspaces: Vec<N::Workspace> = Vec::new();
    let mut partials: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut totals = zeros();
    let mut masks: Vec<Vec<f64>> = vec![Vec::new(); mask_widths.len()];

    for epoch in 0..spec.epochs {
        let decay = if epoch * 4 >= spec.epochs * 3 {
            0.25
        } else if epoch * 2 >= spec.epochs {
            0.5
        } else {
            1.0
        };
        for opt in &mut opts {
            opt.set_learning_rate(spec.lr * decay);
        }
        order.shuffle(rng);
        for batch in order.chunks(bs) {
            for (mask, &width) in masks.iter_mut().zip(mask_widths) {
                mask.clear();
                mask.extend((0..batch.len() * width).map(|_| {
                    if rng.gen::<f64>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                }));
            }

            let ranges = fixed_chunks(batch.len(), spec.chunk_rows);
            ctx.telemetry.add(Counter::TrainChunks, ranges.len() as u64);
            let per_worker = ranges.len().div_ceil(threads.max(1));
            while partials.len() < ranges.len() {
                partials.push(zeros());
            }
            while workspaces.len() * per_worker < ranges.len() {
                workspaces.push(net.workspace(spec.chunk_rows));
            }
            let mut work: Vec<_> = workspaces
                .iter_mut()
                .zip(partials[..ranges.len()].chunks_mut(per_worker))
                .zip(ranges.chunks(per_worker))
                .collect();
            let model: &N = net;
            let masks = &masks;
            par_map_mut(threads, &mut work, |_, ((ws, parts), chunks)| {
                for (grads, &(r0, r1)) in parts.iter_mut().zip(chunks.iter()) {
                    for g in grads.iter_mut() {
                        g.fill(0.0);
                    }
                    let chunk_masks: Vec<&[f64]> = masks
                        .iter()
                        .zip(mask_widths)
                        .map(|(m, &w)| &m[r0 * w..r1 * w])
                        .collect();
                    model.train_chunk((&xs, &ys), &batch[r0..r1], &chunk_masks, ws, grads);
                }
            });

            for t in &mut totals {
                t.fill(0.0);
            }
            for part in &partials[..ranges.len()] {
                for (t, p) in totals.iter_mut().zip(part) {
                    for (a, b) in t.iter_mut().zip(p) {
                        *a += b;
                    }
                }
            }
            let k = 1.0 / batch.len() as f64;
            for v in totals.iter_mut().flatten() {
                *v *= k;
            }
            for ((opt, p), g) in opts.iter_mut().zip(net.params_mut()).zip(&totals) {
                opt.step(p, g);
            }
        }
    }

    if net
        .params_mut()
        .iter()
        .any(|p| !p.iter().all(|v| v.is_finite()))
    {
        return Err(MlError::Diverged);
    }
    Ok((x_scaler, y_scaler))
}

/// The fitted scalers, after checking `net` is fitted and takes `width`
/// features.
fn fitted<N: Network>(net: &N, width: usize) -> Result<(&Scaler, &Scaler), MlError> {
    let (x_scaler, y_scaler) = net.scalers().ok_or(MlError::NotFitted)?;
    let expected = x_scaler.means().len();
    if width != expected {
        return Err(MlError::ShapeMismatch {
            expected,
            got: width,
        });
    }
    Ok((x_scaler, y_scaler))
}

/// Predicts every row of `x`, in blocks of [`PREDICT_BLOCK_ROWS`] rows.
///
/// # Errors
///
/// [`MlError::NotFitted`] before `fit`, [`MlError::ShapeMismatch`] on a
/// feature-width mismatch.
pub(super) fn predict<N: Network>(net: &N, x: &Matrix) -> Result<Matrix, MlError> {
    let (x_scaler, y_scaler) = fitted(net, x.cols())?;
    let xs = x_scaler.transform(x);
    let n = x.rows();
    let mut out = Matrix::zeros(n, y_scaler.means().len());
    let mut ws = net.workspace(n.min(PREDICT_BLOCK_ROWS));
    for r0 in (0..n).step_by(PREDICT_BLOCK_ROWS) {
        let rows = PREDICT_BLOCK_ROWS.min(n - r0);
        let block = net.forward_rows((r0..r0 + rows).map(|r| xs.row(r)), &[], &mut ws);
        for (o, col) in block.chunks_exact(rows).enumerate() {
            for (r, &v) in col.iter().enumerate() {
                out[(r0 + r, o)] = v;
            }
        }
    }
    Ok(y_scaler.inverse_transform(&out))
}

/// The forward pass over one raw input row in a one-row workspace, and the
/// de-scaled prediction, exactly as [`predict`] computes it.
fn forward_one<N: Network>(
    net: &N,
    x: &[f64],
    (x_scaler, y_scaler): (&Scaler, &Scaler),
) -> (Vec<f64>, N::Workspace) {
    let mut row = x.to_vec();
    x_scaler.transform_row(&mut row);
    let mut ws = net.workspace(1);
    let y = net
        .forward_rows(std::iter::once(row.as_slice()), &[], &mut ws)
        .iter()
        .zip(y_scaler.stds().iter().zip(y_scaler.means()))
        .map(|(v, (sd, mean))| v * sd + mean)
        .collect();
    (y, ws)
}

/// The prediction at one row plus `(d y / d x)^T · cotangent(y)`: one
/// forward pass and one input-only backward pass.
///
/// # Errors
///
/// As [`predict`].
pub(super) fn value_and_vjp<N: Network>(
    net: &N,
    x: &[f64],
    cotangent: &dyn Fn(&[f64]) -> Vec<f64>,
) -> Result<(Vec<f64>, Vec<f64>), MlError> {
    let (x_scaler, y_scaler) = fitted(net, x.len())?;
    let (y, mut ws) = forward_one(net, x, (x_scaler, y_scaler));
    let dy = cotangent(&y);
    assert_eq!(dy.len(), y.len(), "one cotangent per output");
    let d_out: Vec<f64> = dy
        .iter()
        .zip(y_scaler.stds())
        .map(|(d, sd)| d * sd)
        .collect();
    let grad = net
        .backward_input(&d_out, &mut ws)
        .iter()
        .zip(x_scaler.stds())
        .map(|(g, sd)| g / sd)
        .collect();
    Ok((y, grad))
}

/// The `m x d` input Jacobian at one row: one forward pass, then one
/// input-only backward pass per output with a one-hot cotangent, so row
/// `o` is bit-identical to [`value_and_vjp`] with cotangent `e_o`.
///
/// # Errors
///
/// As [`predict`].
pub(super) fn input_jacobian<N: Network>(net: &N, x: &[f64]) -> Result<Matrix, MlError> {
    let (x_scaler, y_scaler) = fitted(net, x.len())?;
    let (y, mut ws) = forward_one(net, x, (x_scaler, y_scaler));
    let m = y.len();
    let mut jac = Matrix::zeros(m, x.len());
    for o in 0..m {
        let d_out: Vec<f64> = (0..m)
            .zip(y_scaler.stds())
            .map(|(i, sd)| f64::from(u8::from(i == o)) * sd)
            .collect();
        let d_x = net.backward_input(&d_out, &mut ws);
        for ((j, g), sd) in jac.row_mut(o).iter_mut().zip(d_x).zip(x_scaler.stds()) {
            *j = g / sd;
        }
    }
    Ok(jac)
}
