//! Surrogate performance models: fast stand-ins for the EM simulator during
//! search-space exploration.
//!
//! Three implementations mirror the paper's comparisons:
//!
//! * [`NeuralSurrogate`] — one multi-output differentiable network (MLP or
//!   1D-CNN). This is ISOP+'s surrogate; its input gradient, one fused
//!   forward and input-only backward pass per step
//!   ([`Surrogate::value_and_grad`]), drives the gradient-descent stage.
//! * [`MlpXgbSurrogate`] — the DATE'23 ISOP configuration: an MLP for `Z`
//!   and `L` plus an XGBoost model for `NEXT`. Not differentiable (the tree
//!   part is piecewise-constant), exactly the incompatibility the paper notes
//!   for `H_GD + MLP_XGB`.
//! * [`OracleSurrogate`] — wraps the real simulator; useful in tests and for
//!   isolating search-algorithm behaviour from surrogate error.

use isop_em::simulator::EmSimulator;
use isop_em::stackup::DiffStripline;
use isop_exec::Parallelism;
use isop_ml::dataset::Dataset;
use isop_ml::linalg::Matrix;
use isop_ml::models::{Cnn1d, Mlp, XgbRegressor};
use isop_ml::registry::{self, ModelRegistry};
use isop_ml::train::TrainContext;
use isop_ml::{Differentiable, MlError, Regressor};
use isop_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};

/// Data-parallel training front end for the surrogate model zoo.
///
/// Holds the [`TrainContext`] (worker-thread knob + telemetry sink) that
/// every model's `fit_with` receives, so call sites pick their parallelism
/// once instead of threading it through each training call. Training is
/// bit-identical at any thread count for a fixed seed — the zoo only
/// changes wall-clock, never results.
/// With a [`ModelRegistry`] attached ([`ModelZoo::with_registry`]), the
/// `*_registered` fits consult the persistent store first: a registry hit
/// returns the previously trained model **without training** — zero
/// `ml.fit.*` spans, zero `train.chunks` — and, thanks to the exact-f64
/// store codec, predicts bit-identically to the cold-trained zoo.
#[derive(Debug, Clone, Default)]
pub struct ModelZoo {
    ctx: TrainContext,
    registry: Option<ModelRegistry>,
}

impl ModelZoo {
    /// A zoo training on `parallelism` worker threads, telemetry disabled.
    #[must_use]
    pub fn new(parallelism: Parallelism) -> Self {
        Self {
            ctx: TrainContext::new(parallelism),
            registry: None,
        }
    }

    /// A zoo honoring the `THREADS` environment variable.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(Parallelism::from_env())
    }

    /// Routes `ml.fit.*` spans and the `train.chunks` counter to
    /// `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.ctx = self.ctx.with_telemetry(telemetry);
        self
    }

    /// Attaches a persistent trained-model registry: the `*_registered`
    /// fits then reuse previously stored models instead of retraining.
    #[must_use]
    pub fn with_registry(mut self, registry: ModelRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The attached registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<&ModelRegistry> {
        self.registry.as_ref()
    }

    /// The training context handed to every fit.
    pub fn context(&self) -> &TrainContext {
        &self.ctx
    }

    /// Trains any regressor under the zoo's context.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn fit(&self, model: &mut dyn Regressor, data: &Dataset) -> Result<(), MlError> {
        model.fit_with(data, &self.ctx)
    }

    /// Trains a differentiable model and wraps it as a [`NeuralSurrogate`].
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn fit_neural<M: Differentiable>(
        &self,
        model: M,
        data: &Dataset,
    ) -> Result<NeuralSurrogate<M>, MlError> {
        NeuralSurrogate::fit_with(model, data, &self.ctx)
    }

    /// Trains the DATE'23 [`MlpXgbSurrogate`] pair.
    ///
    /// # Errors
    ///
    /// Propagates training failures from either part.
    pub fn fit_mlp_xgb(
        &self,
        mlp: Mlp,
        xgb: XgbRegressor,
        data: &Dataset,
    ) -> Result<MlpXgbSurrogate, MlError> {
        MlpXgbSurrogate::fit_with(mlp, xgb, data, &self.ctx)
    }

    /// [`ModelZoo::fit_neural`] through the registry, keyed by the space
    /// fingerprint the surrogate will serve. Returns the surrogate plus
    /// whether it was served from the store (`true` = no training
    /// happened). Without an attached registry this is a plain cold fit.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn fit_neural_registered<M>(
        &self,
        space_id: u64,
        model: M,
        data: &Dataset,
    ) -> Result<(NeuralSurrogate<M>, bool), MlError>
    where
        M: Differentiable + Serialize + Deserialize,
    {
        let Some(reg) = &self.registry else {
            return Ok((self.fit_neural(model, data)?, false));
        };
        let config_fp = registry::config_fingerprint(&model);
        let name = model.name();
        let (fitted, hit) = reg.fit_or_load(space_id, name, config_fp, data, move || {
            let mut m = model;
            m.fit_with(data, &self.ctx)?;
            Ok(m)
        })?;
        Ok((NeuralSurrogate::new(fitted), hit))
    }
}

/// A metric prediction `[Z, L, NEXT]` together with an input gradient, as
/// [`Surrogate::value_and_grad`] returns them.
pub type MetricsAndGrad = ([f64; 3], Vec<f64>);

/// A surrogate predicting `[Z, L, NEXT]` from the 15-parameter design vector.
pub trait Surrogate: Send + Sync {
    /// Predicts the metric vector for one design.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] if the model is unfitted or the width mismatches.
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError>;

    /// Input Jacobian (`3 x d`), or `None` when the surrogate is not
    /// differentiable (tree-based models).
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] if the model is unfitted or the width mismatches.
    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>>;

    /// Predicts the metric vector for a batch of designs, one result per
    /// row so a single invalid design does not poison the batch.
    ///
    /// The default loops over [`Surrogate::predict`]; the neural and
    /// `MLP_XGB` surrogates override it with one batched forward pass,
    /// whose rows equal single-row predictions bit for bit.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Input Jacobians for a batch of designs (per-row results; see
    /// [`Surrogate::jacobian`] for the `None` convention).
    fn jacobian_batch(&self, xs: &[Vec<f64>]) -> Vec<Option<Result<Matrix, MlError>>> {
        xs.iter().map(|x| self.jacobian(x)).collect()
    }

    /// The metric prediction at `x` together with `∇x g = (dg/dm) · J`,
    /// where `dg/dm = dg_dm(metrics)` is computed from that prediction.
    /// `None` when the surrogate is not differentiable (the
    /// [`Surrogate::jacobian`] convention).
    ///
    /// The default asks [`Surrogate::jacobian`] first, so a
    /// non-differentiable surrogate answers `None` without predicting, then
    /// [`Surrogate::predict`], and contracts with [`Matrix::vecmat`]. Neural
    /// surrogates override it with one forward and one input-only backward
    /// pass; the oracle reuses one simulation as prediction and
    /// finite-difference base.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] if the model is unfitted or the width mismatches.
    fn value_and_grad(
        &self,
        x: &[f64],
        dg_dm: &dyn Fn(&[f64; 3]) -> [f64; 3],
    ) -> Option<Result<MetricsAndGrad, MlError>> {
        let jac = match self.jacobian(x)? {
            Ok(jac) => jac,
            Err(e) => return Some(Err(e)),
        };
        Some(
            self.predict(x)
                .map(|metrics| (metrics, jac.vecmat(&dg_dm(&metrics)))),
        )
    }

    /// Surrogate name for reports (e.g. `"1D-CNN"`).
    fn name(&self) -> String;
}

fn row_to_metrics(row: &[f64]) -> [f64; 3] {
    [row[0], row[1], row[2]]
}

/// A differentiable multi-output neural surrogate (MLP or 1D-CNN).
#[derive(Debug, Clone)]
pub struct NeuralSurrogate<M> {
    model: M,
}

impl<M: Differentiable> NeuralSurrogate<M> {
    /// Wraps a *fitted* differentiable model with 3 outputs.
    pub fn new(model: M) -> Self {
        Self { model }
    }

    /// Trains `model` on `data` (targets must be `[Z, L, NEXT]`) and wraps
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn fit(model: M, data: &Dataset) -> Result<Self, MlError> {
        Self::fit_with(model, data, &TrainContext::serial())
    }

    /// [`NeuralSurrogate::fit`] under an explicit training context (thread
    /// knob + telemetry) — what [`ModelZoo::fit_neural`] calls.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn fit_with(mut model: M, data: &Dataset, ctx: &TrainContext) -> Result<Self, MlError> {
        model.fit_with(data, ctx)?;
        Ok(Self { model })
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: Differentiable> Surrogate for NeuralSurrogate<M> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let out = isop_ml::predict_row(&self.model, x)?;
        Ok(row_to_metrics(&out))
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        Some(self.model.input_jacobian(x))
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        if xs.is_empty() {
            return Vec::new();
        }
        // One matrix forward pass over the whole batch instead of one
        // single-row pass per design.
        let batch = Matrix::from_rows(xs);
        match self.model.predict(&batch) {
            Ok(out) => (0..out.rows())
                .map(|r| Ok(row_to_metrics(out.row(r))))
                .collect(),
            // A whole-batch failure (unfitted model, width mismatch)
            // applies to every row equally.
            Err(e) => xs.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn value_and_grad(
        &self,
        x: &[f64],
        dg_dm: &dyn Fn(&[f64; 3]) -> [f64; 3],
    ) -> Option<Result<MetricsAndGrad, MlError>> {
        let fused = self
            .model
            .value_and_vjp(x, &|y| dg_dm(&row_to_metrics(y)).to_vec());
        Some(fused.map(|(y, grad)| (row_to_metrics(&y), grad)))
    }

    fn name(&self) -> String {
        self.model.name().to_string()
    }
}

/// Convenience alias for the paper's headline surrogate.
pub type CnnSurrogate = NeuralSurrogate<Cnn1d>;

/// Convenience alias for the MLP surrogate.
pub type MlpSurrogate = NeuralSurrogate<Mlp>;

/// The DATE'23 ISOP surrogate: MLP for `Z`/`L`, XGBoost for `NEXT`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MlpXgbSurrogate {
    mlp: Mlp,
    xgb: XgbRegressor,
}

impl MlpXgbSurrogate {
    /// Trains both parts on `data` (targets `[Z, L, NEXT]`).
    ///
    /// # Errors
    ///
    /// Propagates training failures from either part.
    pub fn fit(mlp: Mlp, xgb: XgbRegressor, data: &Dataset) -> Result<Self, MlError> {
        Self::fit_with(mlp, xgb, data, &TrainContext::serial())
    }

    /// [`MlpXgbSurrogate::fit`] under an explicit training context — what
    /// [`ModelZoo::fit_mlp_xgb`] calls.
    ///
    /// # Errors
    ///
    /// Propagates training failures from either part.
    pub fn fit_with(
        mut mlp: Mlp,
        mut xgb: XgbRegressor,
        data: &Dataset,
        ctx: &TrainContext,
    ) -> Result<Self, MlError> {
        // Split targets: MLP gets [Z, L], XGB gets [NEXT].
        let n = data.len();
        let mut y_zl = Matrix::zeros(n, 2);
        let mut y_next = Matrix::zeros(n, 1);
        for r in 0..n {
            y_zl[(r, 0)] = data.y[(r, 0)];
            y_zl[(r, 1)] = data.y[(r, 1)];
            y_next[(r, 0)] = data.y[(r, 2)];
        }
        mlp.fit_with(&Dataset::new(data.x.clone(), y_zl)?, ctx)?;
        xgb.fit_with(&Dataset::new(data.x.clone(), y_next)?, ctx)?;
        Ok(Self { mlp, xgb })
    }
}

impl Surrogate for MlpXgbSurrogate {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let zl = isop_ml::predict_row(&self.mlp, x)?;
        let next = isop_ml::predict_row(&self.xgb, x)?;
        Ok([zl[0], zl[1], next[0]])
    }

    fn jacobian(&self, _x: &[f64]) -> Option<Result<Matrix, MlError>> {
        // The XGBoost part is piecewise-constant: no usable gradient.
        None
    }

    /// One batched MLP forward pass plus the XGB rows.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let batch = Matrix::from_rows(xs);
        let both = (self.mlp.predict(&batch))
            .and_then(|zl| self.xgb.predict(&batch).map(|next| (zl, next)));
        match both {
            Ok((zl, next)) => (0..batch.rows())
                .map(|r| Ok([zl[(r, 0)], zl[(r, 1)], next[(r, 0)]]))
                .collect(),
            // As in `NeuralSurrogate::predict_batch`: a whole-batch failure
            // applies to every row.
            Err(e) => xs.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn name(&self) -> String {
        "MLP_XGB".to_string()
    }
}

/// A counting decorator over any [`Surrogate`]: forwards every call to the
/// wrapped model while ticking the typed telemetry counters the run report
/// accounts surrogate cost by (`predict` / `predict_batch` calls, batch
/// rows, Jacobian evaluations; a fused `value_and_grad` call counts as one
/// prediction and one Jacobian).
///
/// Counter increments are commutative, so totals are identical at any
/// worker-thread width; with a disabled handle each call adds one branch.
/// The pipeline wraps its surrogate in this decorator internally — wrap
/// manually only when driving a surrogate outside [`IsopOptimizer`]
/// (e.g. the CI bench gate).
///
/// [`IsopOptimizer`]: crate::pipeline::IsopOptimizer
pub struct InstrumentedSurrogate<'a> {
    inner: &'a dyn Surrogate,
    telemetry: Telemetry,
}

impl<'a> InstrumentedSurrogate<'a> {
    /// Wraps `inner`, recording onto `telemetry`.
    pub fn new(inner: &'a dyn Surrogate, telemetry: Telemetry) -> Self {
        Self { inner, telemetry }
    }
}

impl Surrogate for InstrumentedSurrogate<'_> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        self.telemetry.incr(Counter::SurrogatePredict);
        self.inner.predict(x)
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        self.telemetry.incr(Counter::SurrogateJacobian);
        self.inner.jacobian(x)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Result<[f64; 3], MlError>> {
        self.telemetry.incr(Counter::SurrogatePredictBatch);
        self.telemetry
            .add(Counter::SurrogatePredictBatchRows, xs.len() as u64);
        self.inner.predict_batch(xs)
    }

    fn jacobian_batch(&self, xs: &[Vec<f64>]) -> Vec<Option<Result<Matrix, MlError>>> {
        self.telemetry.incr(Counter::SurrogateJacobianBatch);
        self.telemetry
            .add(Counter::SurrogateJacobianBatchRows, xs.len() as u64);
        self.inner.jacobian_batch(xs)
    }

    /// One fused call does the work of one prediction and one Jacobian, so
    /// it ticks both counters once.
    fn value_and_grad(
        &self,
        x: &[f64],
        dg_dm: &dyn Fn(&[f64; 3]) -> [f64; 3],
    ) -> Option<Result<MetricsAndGrad, MlError>> {
        self.telemetry.incr(Counter::SurrogatePredict);
        self.telemetry.incr(Counter::SurrogateJacobian);
        self.inner.value_and_grad(x, dg_dm)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A "perfect" surrogate that queries the real simulator (with optional
/// finite-difference gradients). Used in tests and algorithm ablations.
pub struct OracleSurrogate<S> {
    sim: S,
    fd_step: f64,
}

impl<S: EmSimulator> OracleSurrogate<S> {
    /// Wraps a simulator; gradients use central differences with `fd_step`
    /// relative to each parameter's magnitude.
    pub fn new(sim: S) -> Self {
        Self { sim, fd_step: 1e-4 }
    }

    fn eval(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        let layer = DiffStripline::from_vector(x).map_err(|_| MlError::Diverged)?;
        let r = self.sim.simulate(&layer).map_err(|_| MlError::Diverged)?;
        Ok(r.to_array())
    }

    /// Finite-difference Jacobian at `x`, whose own evaluation is `base`.
    fn fd_jacobian(&self, x: &[f64], base: [f64; 3]) -> Result<Matrix, MlError> {
        let mut jac = Matrix::zeros(3, x.len());
        for c in 0..x.len() {
            let h = self.fd_step * x[c].abs().max(1e-3);
            let mut hi = x.to_vec();
            let mut lo = x.to_vec();
            hi[c] += h;
            lo[c] -= h;
            // Central difference where both sides are valid; fall back to a
            // one-sided difference at geometry boundaries (e.g. E_t = 0).
            let (ph, pl, span) = match (self.eval(&hi), self.eval(&lo)) {
                (Ok(a), Ok(b)) => (a, b, 2.0 * h),
                (Ok(a), Err(_)) => (a, base, h),
                (Err(_), Ok(b)) => (base, b, h),
                (Err(e), Err(_)) => return Err(e),
            };
            for r in 0..3 {
                jac[(r, c)] = (ph[r] - pl[r]) / span;
            }
        }
        Ok(jac)
    }
}

impl<S: EmSimulator> Surrogate for OracleSurrogate<S> {
    fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
        self.eval(x)
    }

    fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
        Some(self.eval(x).and_then(|base| self.fd_jacobian(x, base)))
    }

    /// Simulates `x` once and uses it as both the prediction and the
    /// finite-difference base: bit-identical to the trait default, with
    /// one simulation fewer.
    fn value_and_grad(
        &self,
        x: &[f64],
        dg_dm: &dyn Fn(&[f64; 3]) -> [f64; 3],
    ) -> Option<Result<MetricsAndGrad, MlError>> {
        Some(self.eval(x).and_then(|metrics| {
            let jac = self.fd_jacobian(x, metrics)?;
            Ok((metrics, jac.vecmat(&dg_dm(&metrics))))
        }))
    }

    fn name(&self) -> String {
        format!("oracle({})", self.sim.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate_dataset;
    use crate::spaces;
    use isop_em::simulator::AnalyticalSolver;
    use isop_ml::models::MlpConfig;

    fn tiny_dataset(n: usize) -> Dataset {
        generate_dataset(&spaces::s1(), n, &AnalyticalSolver::new(), 42).expect("dataset")
    }

    fn tiny_mlp() -> Mlp {
        Mlp::new(MlpConfig {
            hidden: vec![24, 24],
            epochs: 60,
            batch_size: 32,
            lr: 2e-3,
            dropout: 0.0,
            ..MlpConfig::default()
        })
    }

    #[test]
    fn neural_surrogate_learns_simulator_shape() {
        let data = tiny_dataset(400);
        let s = NeuralSurrogate::fit(tiny_mlp(), &data).expect("trains");
        // Predictions on a training row should land in the right regime.
        let row = data.x.row(0);
        let pred = s.predict(row).expect("predicts");
        let truth = data.y.row(0);
        assert!(
            (pred[0] - truth[0]).abs() < 12.0,
            "Z: {} vs {}",
            pred[0],
            truth[0]
        );
        assert!(pred[1] < 0.1, "L must be ~negative: {}", pred[1]);
    }

    #[test]
    fn neural_surrogate_exposes_jacobian() {
        let data = tiny_dataset(200);
        let s = NeuralSurrogate::fit(tiny_mlp(), &data).expect("trains");
        let jac = s
            .jacobian(data.x.row(0))
            .expect("differentiable")
            .expect("ok");
        assert_eq!((jac.rows(), jac.cols()), (3, 15));
    }

    #[test]
    fn mlp_xgb_predicts_but_has_no_jacobian() {
        let data = tiny_dataset(200);
        let s = MlpXgbSurrogate::fit(tiny_mlp(), XgbRegressor::new(30, 0.2, 4, 1.0, 0.0), &data)
            .expect("trains");
        let pred = s.predict(data.x.row(0)).expect("predicts");
        assert!(pred.iter().all(|v| v.is_finite()));
        assert!(
            s.jacobian(data.x.row(0)).is_none(),
            "tree part is not differentiable"
        );
        assert_eq!(s.name(), "MLP_XGB");
    }

    /// The batched `MLP_XGB` forward pass predicts each row bit for bit as
    /// `predict` does, at row counts on both sides of the dense kernels'
    /// register blocks and the predict blocks, and an instrumented wrapper
    /// counts one batch call per call and its rows, never a per-row call.
    #[test]
    fn mlp_xgb_batch_rows_match_single_predictions() {
        let data = tiny_dataset(320);
        let s = MlpXgbSurrogate::fit(tiny_mlp(), XgbRegressor::new(30, 0.2, 4, 1.0, 0.0), &data)
            .expect("trains");
        let rows: Vec<Vec<f64>> = (0..300).map(|r| data.x.row(r).to_vec()).collect();
        let tele = Telemetry::enabled();
        let wrapped = InstrumentedSurrogate::new(&s, tele.clone());
        let mut batch_rows = 0;
        for n in [1, 2, 9, 17, 300] {
            let batch = wrapped.predict_batch(&rows[..n]);
            batch_rows += n as u64;
            assert_eq!(batch.len(), n);
            for (r, got) in batch.into_iter().enumerate() {
                let got = got.expect("predicts").map(f64::to_bits);
                let want = s.predict(&rows[r]).expect("predicts").map(f64::to_bits);
                assert_eq!(got, want, "batch {n}, row {r}");
            }
        }
        assert_eq!(tele.counter(Counter::SurrogatePredict), 0);
        assert_eq!(tele.counter(Counter::SurrogatePredictBatch), 5);
        assert_eq!(tele.counter(Counter::SurrogatePredictBatchRows), batch_rows);
    }

    #[test]
    fn oracle_surrogate_matches_simulator_exactly() {
        let s = OracleSurrogate::new(AnalyticalSolver::new());
        let x = crate::manual::MANUAL_VECTOR;
        let pred = s.predict(&x).expect("valid design");
        let direct = AnalyticalSolver::new()
            .simulate(&DiffStripline::from_vector(&x).unwrap())
            .unwrap();
        assert_eq!(pred, direct.to_array());
    }

    #[test]
    fn oracle_jacobian_has_physical_signs() {
        let s = OracleSurrogate::new(AnalyticalSolver::new());
        let x = crate::manual::MANUAL_VECTOR;
        let jac = s.jacobian(&x).expect("fd").expect("ok");
        // Wider trace lowers Z.
        assert!(jac[(0, 0)] < 0.0, "dZ/dW = {}", jac[(0, 0)]);
        // Larger pair distance reduces |NEXT| (NEXT is negative, so dNEXT/dD > 0).
        assert!(jac[(2, 2)] > 0.0, "dNEXT/dD = {}", jac[(2, 2)]);
    }

    #[test]
    fn instrumented_surrogate_counts_without_changing_predictions() {
        let inner = OracleSurrogate::new(AnalyticalSolver::new());
        let tele = Telemetry::enabled();
        let wrapped = InstrumentedSurrogate::new(&inner, tele.clone());
        let x = crate::manual::MANUAL_VECTOR;
        assert_eq!(wrapped.predict(&x).unwrap(), inner.predict(&x).unwrap());
        let batch = vec![x.to_vec(), x.to_vec(), x.to_vec()];
        let _ = wrapped.predict_batch(&batch);
        let _ = wrapped.jacobian(&x);
        let _ = wrapped.jacobian_batch(&batch[..2]);
        assert_eq!(wrapped.name(), inner.name());
        assert_eq!(tele.counter(Counter::SurrogatePredict), 1);
        assert_eq!(tele.counter(Counter::SurrogatePredictBatch), 1);
        assert_eq!(tele.counter(Counter::SurrogatePredictBatchRows), 3);
        assert_eq!(tele.counter(Counter::SurrogateJacobian), 1);
        assert_eq!(tele.counter(Counter::SurrogateJacobianBatch), 1);
        assert_eq!(tele.counter(Counter::SurrogateJacobianBatchRows), 2);
    }

    /// Answers only the fused call, so a decorator that fell back to the
    /// two-call default would panic.
    struct FusedOnly;

    impl Surrogate for FusedOnly {
        fn predict(&self, _x: &[f64]) -> Result<[f64; 3], MlError> {
            unreachable!("value_and_grad must be forwarded")
        }

        fn jacobian(&self, _x: &[f64]) -> Option<Result<Matrix, MlError>> {
            unreachable!("value_and_grad must be forwarded")
        }

        fn value_and_grad(
            &self,
            x: &[f64],
            dg_dm: &dyn Fn(&[f64; 3]) -> [f64; 3],
        ) -> Option<Result<MetricsAndGrad, MlError>> {
            Some(Ok((dg_dm(&[1.0, 2.0, 3.0]), x.to_vec())))
        }

        fn name(&self) -> String {
            "fused-only".to_string()
        }
    }

    #[test]
    fn instrumented_value_and_grad_ticks_one_predict_and_one_jacobian() {
        let tele = Telemetry::enabled();
        let wrapped = InstrumentedSurrogate::new(&FusedOnly, tele.clone());
        let fused = wrapped
            .value_and_grad(&[4.0, 5.0], &|m| m.map(|v| -v))
            .expect("forwarded")
            .expect("ok");
        assert_eq!(fused, ([-1.0, -2.0, -3.0], vec![4.0, 5.0]));
        assert_eq!(tele.counter(Counter::SurrogatePredict), 1);
        assert_eq!(tele.counter(Counter::SurrogateJacobian), 1);
        assert_eq!(tele.counter(Counter::SurrogatePredictBatch), 0);
        assert_eq!(tele.counter(Counter::SurrogateJacobianBatch), 0);
    }

    /// Implements only `predict` and `jacobian`, so `value_and_grad` runs
    /// the trait default.
    struct TwoCalls<'a>(&'a dyn Surrogate);

    impl Surrogate for TwoCalls<'_> {
        fn predict(&self, x: &[f64]) -> Result<[f64; 3], MlError> {
            self.0.predict(x)
        }

        fn jacobian(&self, x: &[f64]) -> Option<Result<Matrix, MlError>> {
            self.0.jacobian(x)
        }

        fn name(&self) -> String {
            self.0.name()
        }
    }

    #[test]
    fn oracle_value_and_grad_matches_the_default_bit_for_bit() {
        let oracle = OracleSurrogate::new(AnalyticalSolver::new());
        let objective = crate::tasks::objective_for(crate::tasks::TaskId::T4, vec![]);
        let dg_dm = |m: &[f64; 3]| objective.dg_dmetrics(m);
        let bits = |(m, g): ([f64; 3], Vec<f64>)| {
            (
                m.map(f64::to_bits),
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        let data = tiny_dataset(4);
        let mut designs = vec![crate::manual::MANUAL_VECTOR.to_vec()];
        designs.extend((0..data.len()).map(|r| data.x.row(r).to_vec()));
        for x in &designs {
            let fused = oracle.value_and_grad(x, &dg_dm).expect("fd").expect("ok");
            let default = TwoCalls(&oracle)
                .value_and_grad(x, &dg_dm)
                .expect("fd")
                .expect("ok");
            assert_eq!(bits(fused), bits(default));
        }
        // An invalid design errors on both paths.
        let mut bad = crate::manual::MANUAL_VECTOR;
        bad[0] = -5.0;
        assert!(matches!(oracle.value_and_grad(&bad, &dg_dm), Some(Err(_))));
        assert!(matches!(
            TwoCalls(&oracle).value_and_grad(&bad, &dg_dm),
            Some(Err(_))
        ));
    }

    #[test]
    fn zoo_registry_elides_training_and_replays_bits() {
        use isop_ml::registry::ModelRegistry;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("isop-zoo-reg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let data = tiny_dataset(120);
        let space_id = 0x1234;
        let x = crate::manual::MANUAL_VECTOR;

        // Cold: trains and records; without a registry the same zoo call is
        // a plain fit.
        let plain = ModelZoo::new(isop_exec::Parallelism::serial());
        let (_, hit) = plain
            .fit_neural_registered(space_id, tiny_mlp(), &data)
            .expect("trains");
        assert!(!hit, "no registry attached");

        let (cold_pred, cold_rows);
        {
            let store = Arc::new(isop_store::Store::open(&dir).expect("opens"));
            let zoo = ModelZoo::new(isop_exec::Parallelism::serial())
                .with_registry(ModelRegistry::new(Arc::clone(&store)));
            let (s, hit) = zoo
                .fit_neural_registered(space_id, tiny_mlp(), &data)
                .expect("trains");
            assert!(!hit, "cold run trains");
            cold_pred = s.predict(&x).expect("predicts");
            cold_rows = Regressor::predict(s.model(), &data.x).expect("predicts");
            zoo.registry()
                .expect("attached")
                .persist()
                .expect("flushes");
        }

        // Warm "process": training must be skipped entirely (no ml.fit.*
        // span, no train.chunks) and predictions must replay bit-exactly.
        let tele = Telemetry::enabled();
        let store = Arc::new(isop_store::Store::open(&dir).expect("reopens"));
        let zoo = ModelZoo::new(isop_exec::Parallelism::serial())
            .with_telemetry(tele.clone())
            .with_registry(ModelRegistry::new(store).with_telemetry(tele.clone()));
        let (s, hit) = zoo
            .fit_neural_registered(space_id, tiny_mlp(), &data)
            .expect("loads");
        assert!(hit, "warm run is served from the store");
        let warm_pred = s.predict(&x).expect("predicts");
        for (a, b) in cold_pred.iter().zip(&warm_pred) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical warm surrogate");
        }
        let warm_rows = Regressor::predict(s.model(), &data.x).expect("predicts");
        for r in 0..data.x.rows() {
            for (a, b) in cold_rows.row(r).iter().zip(warm_rows.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-identical row {r}");
            }
        }
        let report = tele.run_report();
        assert_eq!(report.counter("store.model_hits"), 1);
        assert_eq!(report.counter("train.chunks"), 0, "zero training work");
        assert!(
            report.spans.iter().all(|s| !s.name.starts_with("ml.fit.")),
            "warm run must record no ml.fit.* span"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oracle_rejects_invalid_designs() {
        let s = OracleSurrogate::new(AnalyticalSolver::new());
        let mut x = crate::manual::MANUAL_VECTOR;
        x[0] = -5.0;
        assert!(s.predict(&x).is_err());
    }
}
