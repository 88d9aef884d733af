//! Optimization objectives: the exact `g(.)` (Eq. 8), its smoothed surrogate
//! companion `g_hat(.)` (Eqs. 9–10, Fig. 5), and input-parameter constraints
//! (Eq. 11), with analytic gradients for the local-exploration stage.
//!
//! Conventions (matching the paper's tables):
//!
//! * Metrics are `[Z, L, NEXT]` with `L` and `NEXT` non-positive.
//! * The FoM is a weighted sum of metric **magnitudes** (`T1`–`T3`: `|L|`;
//!   `T4`: `|L| + 2 |NEXT|`); lower is better.
//! * Output constraints are tolerance bands `|m - target| <= tol`, relaxed
//!   into clip penalties in `g` and double-sigmoid penalties in `g_hat`.
//! * Input constraints are first-order polynomial bounds
//!   `sum_i c_i x_i <= A` on the design vector, kept as hard clips in both.

use isop_ml::linalg::Matrix;
use serde::{Deserialize, Serialize};

/// The three stack-up performance metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Differential impedance, ohms.
    Z,
    /// Insertion loss at 16 GHz, dB/inch (negative).
    L,
    /// Near-end crosstalk, mV (negative).
    Next,
}

impl Metric {
    /// Index of the metric in a `[Z, L, NEXT]` vector.
    pub fn index(self) -> usize {
        match self {
            Metric::Z => 0,
            Metric::L => 1,
            Metric::Next => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Z => "Z",
            Metric::L => "L",
            Metric::Next => "NEXT",
        }
    }
}

/// Figure-of-merit specification: `sum_i c_i |metric_i|`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FomSpec {
    /// `(metric, coefficient)` terms.
    pub terms: Vec<(Metric, f64)>,
}

impl FomSpec {
    /// FoM of a metric vector.
    pub fn value(&self, metrics: &[f64; 3]) -> f64 {
        self.terms
            .iter()
            .map(|&(m, c)| c * metrics[m.index()].abs())
            .sum()
    }

    /// Gradient of the FoM with respect to the metric vector.
    pub fn grad_metrics(&self, metrics: &[f64; 3]) -> [f64; 3] {
        let mut g = [0.0; 3];
        for &(m, c) in &self.terms {
            let v = metrics[m.index()];
            g[m.index()] += c * if v >= 0.0 { 1.0 } else { -1.0 };
        }
        g
    }
}

/// A tolerance-band output constraint `|metric - target| <= tolerance`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutputConstraint {
    /// Constrained metric.
    pub metric: Metric,
    /// Band centre (e.g. `Z_o = 85`).
    pub target: f64,
    /// Acceptable deviation (e.g. `Z_pm = 1`).
    pub tolerance: f64,
}

impl OutputConstraint {
    /// Creates a band constraint.
    ///
    /// # Panics
    ///
    /// Panics unless `tolerance > 0`.
    pub fn band(metric: Metric, target: f64, tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        Self {
            metric,
            target,
            tolerance,
        }
    }

    /// Hard clip penalty `max(|m - target| - tol, 0)` (Eq. 8).
    pub fn violation(&self, metrics: &[f64; 3]) -> f64 {
        ((metrics[self.metric.index()] - self.target).abs() - self.tolerance).max(0.0)
    }

    /// `true` when the metric sits inside the band.
    pub fn satisfied(&self, metrics: &[f64; 3]) -> bool {
        self.violation(metrics) <= 1e-9
    }

    /// Double-sigmoid smoothed penalty (Eq. 9, Fig. 5):
    /// `S(gamma (dev - tol)) + S(gamma (-dev - tol))`, range `(0, 2)`.
    ///
    /// `gamma` defaults to `1 / tolerance` in the framework, making the
    /// transition width proportional to the band (the paper's choice).
    pub fn smoothed(&self, metrics: &[f64; 3], gamma: f64) -> f64 {
        let dev = metrics[self.metric.index()] - self.target;
        sigmoid(gamma * (dev - self.tolerance)) + sigmoid(gamma * (-dev - self.tolerance))
    }

    /// Derivative of [`smoothed`](Self::smoothed) with respect to the metric.
    pub fn smoothed_grad(&self, metrics: &[f64; 3], gamma: f64) -> f64 {
        let dev = metrics[self.metric.index()] - self.target;
        gamma
            * (sigmoid_deriv(gamma * (dev - self.tolerance))
                - sigmoid_deriv(gamma * (-dev - self.tolerance)))
    }

    /// The boundary penalty value `C_max` used by the adaptive-weight rule:
    /// the smoothed penalty evaluated exactly on the band edge.
    pub fn boundary_penalty(&self, gamma: f64) -> f64 {
        sigmoid(0.0) + sigmoid(-2.0 * gamma * self.tolerance)
    }
}

/// A first-order input-parameter constraint `sum_i c_i x_i <= bound`
/// (Eq. 11), e.g. `2 W_t + S_t <= 20`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputConstraint {
    /// `(parameter index, coefficient)` terms of the linear form.
    pub terms: Vec<(usize, f64)>,
    /// Upper bound `A`.
    pub bound: f64,
    /// Human-readable description for reports.
    pub label: String,
}

impl InputConstraint {
    /// Creates a linear input constraint.
    pub fn new(terms: Vec<(usize, f64)>, bound: f64, label: impl Into<String>) -> Self {
        Self {
            terms,
            bound,
            label: label.into(),
        }
    }

    /// The linear form `y(x)`.
    pub fn linear_form(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|&(i, c)| c * values[i]).sum()
    }

    /// Clip penalty `max(y(x) - A, 0)`.
    pub fn violation(&self, values: &[f64]) -> f64 {
        (self.linear_form(values) - self.bound).max(0.0)
    }

    /// `true` when the constraint holds.
    pub fn satisfied(&self, values: &[f64]) -> bool {
        self.violation(values) <= 1e-9
    }

    /// Gradient of the penalty with respect to the design vector.
    pub fn grad(&self, values: &[f64], out: &mut [f64]) {
        if self.violation(values) > 0.0 {
            for &(i, c) in &self.terms {
                out[i] += c;
            }
        }
    }
}

/// Objective weights (`w^FoM`, `w^OC`, `w^IC`) — adaptively tuned by
/// Algorithm 2 during the global stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// FoM weight.
    pub fom: f64,
    /// One weight per output constraint.
    pub oc: Vec<f64>,
    /// One weight per input constraint.
    pub ic: Vec<f64>,
}

/// The full optimization objective for one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// FoM specification.
    pub fom: FomSpec,
    /// Output constraints.
    pub output_constraints: Vec<OutputConstraint>,
    /// Input constraints.
    pub input_constraints: Vec<InputConstraint>,
    /// Current weights.
    pub weights: Weights,
    /// Sigmoid steepness scale: `gamma_j = gamma_scale / tolerance_j`.
    pub gamma_scale: f64,
}

impl Objective {
    /// Builds an objective with equal initial weights (the paper's choice)
    /// and `gamma = 1 / tolerance`.
    pub fn new(
        fom: FomSpec,
        output_constraints: Vec<OutputConstraint>,
        input_constraints: Vec<InputConstraint>,
    ) -> Self {
        let weights = Weights {
            fom: 1.0,
            oc: vec![1.0; output_constraints.len()],
            ic: vec![1.0; input_constraints.len()],
        };
        Self {
            fom,
            output_constraints,
            input_constraints,
            weights,
            gamma_scale: 1.0,
        }
    }

    /// Per-constraint sigmoid steepness.
    pub fn gamma(&self, constraint: &OutputConstraint) -> f64 {
        self.gamma_scale / constraint.tolerance
    }

    /// The exact roll-out objective `g` (Eq. 8 plus the IC term): FoM plus
    /// weighted clip penalties.
    pub fn g_exact(&self, metrics: &[f64; 3], values: &[f64]) -> f64 {
        let mut total = self.weights.fom * self.fom.value(metrics);
        for (c, w) in self.output_constraints.iter().zip(&self.weights.oc) {
            total += w * c.violation(metrics);
        }
        for (c, w) in self.input_constraints.iter().zip(&self.weights.ic) {
            total += w * c.violation(values);
        }
        total
    }

    /// The smoothed exploration objective `g_hat` (Eqs. 9–10).
    pub fn g_hat(&self, metrics: &[f64; 3], values: &[f64]) -> f64 {
        let mut total = self.weights.fom * self.fom.value(metrics);
        for (c, w) in self.output_constraints.iter().zip(&self.weights.oc) {
            total += w * c.smoothed(metrics, self.gamma(c));
        }
        for (c, w) in self.input_constraints.iter().zip(&self.weights.ic) {
            total += w * c.violation(values);
        }
        total
    }

    /// `d g_hat / d metrics` at a metric prediction: the weighted FoM
    /// gradient plus each output constraint's smoothed-penalty slope. The
    /// cotangent the gradient stage pulls back through the surrogate.
    pub fn dg_dmetrics(&self, metrics: &[f64; 3]) -> [f64; 3] {
        let mut dm = self.fom.grad_metrics(metrics);
        for m in &mut dm {
            *m *= self.weights.fom;
        }
        for (c, w) in self.output_constraints.iter().zip(&self.weights.oc) {
            dm[c.metric.index()] += w * c.smoothed_grad(metrics, self.gamma(c));
        }
        dm
    }

    /// Adds the weighted input-constraint gradient, which acts on the
    /// design vector directly, into `grad`.
    pub fn add_input_grad(&self, values: &[f64], grad: &mut [f64]) {
        let mut scratch = vec![0.0; values.len()];
        for (c, w) in self.input_constraints.iter().zip(&self.weights.ic) {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            c.grad(values, &mut scratch);
            for (g, s) in grad.iter_mut().zip(&scratch) {
                *g += w * s;
            }
        }
    }

    /// Gradient of `g_hat` with respect to the **design vector**, given the
    /// surrogate's metric prediction and its input Jacobian (`3 x d`):
    /// [`Objective::dg_dmetrics`] contracted with the Jacobian, plus
    /// [`Objective::add_input_grad`].
    ///
    /// # Panics
    ///
    /// Panics if `jacobian` is not `3 x values.len()`.
    pub fn grad_g_hat(&self, metrics: &[f64; 3], jacobian: &Matrix, values: &[f64]) -> Vec<f64> {
        assert_eq!(jacobian.rows(), 3, "jacobian must have 3 metric rows");
        assert_eq!(jacobian.cols(), values.len(), "jacobian width mismatch");
        let mut grad = jacobian.vecmat(&self.dg_dmetrics(metrics));
        self.add_input_grad(values, &mut grad);
        grad
    }

    /// `true` when every output and input constraint is satisfied — the
    /// paper's success criterion.
    pub fn all_satisfied(&self, metrics: &[f64; 3], values: &[f64]) -> bool {
        self.output_constraints.iter().all(|c| c.satisfied(metrics))
            && self.input_constraints.iter().all(|c| c.satisfied(values))
    }
}

#[inline]
fn sigmoid(t: f64) -> f64 {
    1.0 / (1.0 + (-t).exp())
}

#[inline]
fn sigmoid_deriv(t: f64) -> f64 {
    let s = sigmoid(t);
    s * (1.0 - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z_band() -> OutputConstraint {
        OutputConstraint::band(Metric::Z, 85.0, 1.0)
    }

    fn t1_objective() -> Objective {
        Objective::new(
            FomSpec {
                terms: vec![(Metric::L, 1.0)],
            },
            vec![z_band()],
            vec![],
        )
    }

    #[test]
    fn fom_uses_magnitudes() {
        let fom = FomSpec {
            terms: vec![(Metric::L, 1.0), (Metric::Next, 2.0)],
        };
        // T4 convention: |L| + 2 |NEXT|.
        assert!((fom.value(&[85.0, -0.467, -0.006]) - 0.479).abs() < 1e-12);
    }

    #[test]
    fn violation_clip_shape() {
        let c = z_band();
        assert_eq!(c.violation(&[85.0, 0.0, 0.0]), 0.0);
        assert_eq!(c.violation(&[85.9, 0.0, 0.0]), 0.0);
        assert!((c.violation(&[87.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((c.violation(&[82.0, 0.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smoothed_penalty_approximates_clip() {
        let c = z_band();
        let gamma = 4.0; // steep
        let inside = c.smoothed(&[85.0, 0.0, 0.0], gamma);
        let edge = c.smoothed(&[86.0, 0.0, 0.0], gamma);
        let outside = c.smoothed(&[89.0, 0.0, 0.0], gamma);
        assert!(inside < edge, "{inside} !< {edge}");
        assert!(edge < outside);
        assert!(outside > 0.9 && outside < 2.0);
        assert!(inside < 0.1);
    }

    #[test]
    fn smoothed_penalty_is_symmetric() {
        let c = z_band();
        let hi = c.smoothed(&[87.3, 0.0, 0.0], 1.0);
        let lo = c.smoothed(&[82.7, 0.0, 0.0], 1.0);
        assert!((hi - lo).abs() < 1e-12);
    }

    #[test]
    fn steeper_gamma_sharpens_transition() {
        // Fig. 5: larger gamma -> closer to the hard clip.
        let c = z_band();
        let soft = c.smoothed(&[86.5, 0.0, 0.0], 0.5) - c.smoothed(&[85.5, 0.0, 0.0], 0.5);
        let sharp = c.smoothed(&[86.5, 0.0, 0.0], 5.0) - c.smoothed(&[85.5, 0.0, 0.0], 5.0);
        assert!(sharp > soft, "sharp {sharp} !> soft {soft}");
    }

    #[test]
    fn smoothed_grad_matches_finite_difference() {
        let c = z_band();
        for &z in &[83.0, 84.9, 85.0, 86.1, 88.0] {
            for &gamma in &[0.5, 1.0, 3.0] {
                let h = 1e-6;
                let fd = (c.smoothed(&[z + h, 0.0, 0.0], gamma)
                    - c.smoothed(&[z - h, 0.0, 0.0], gamma))
                    / (2.0 * h);
                let an = c.smoothed_grad(&[z, 0.0, 0.0], gamma);
                assert!((fd - an).abs() < 1e-6, "z={z} gamma={gamma}: {an} vs {fd}");
            }
        }
    }

    #[test]
    fn input_constraint_penalty_and_grad() {
        // 2 W + S <= 20 with W = x0, S = x1.
        let ic = InputConstraint::new(vec![(0, 2.0), (1, 1.0)], 20.0, "2W+S<=20");
        assert_eq!(ic.violation(&[5.0, 6.0]), 0.0);
        assert!((ic.violation(&[8.0, 6.0]) - 2.0).abs() < 1e-12);
        let mut g = vec![0.0; 2];
        ic.grad(&[8.0, 6.0], &mut g);
        assert_eq!(g, vec![2.0, 1.0]);
        let mut g2 = vec![0.0; 2];
        ic.grad(&[5.0, 6.0], &mut g2);
        assert_eq!(g2, vec![0.0, 0.0], "no gradient when satisfied");
    }

    #[test]
    fn g_exact_combines_terms() {
        let obj = t1_objective();
        // In-band: g = |L|.
        let g_in = obj.g_exact(&[85.0, -0.4, 0.0], &[]);
        assert!((g_in - 0.4).abs() < 1e-12);
        // Out of band by 1 ohm: g = |L| + 1.
        let g_out = obj.g_exact(&[87.0, -0.4, 0.0], &[]);
        assert!((g_out - 1.4).abs() < 1e-12);
    }

    #[test]
    fn g_hat_prefers_feasible_low_loss() {
        let obj = t1_objective();
        let feasible = obj.g_hat(&[85.0, -0.35, 0.0], &[]);
        let infeasible = obj.g_hat(&[89.0, -0.35, 0.0], &[]);
        let lossy = obj.g_hat(&[85.0, -0.9, 0.0], &[]);
        assert!(feasible < infeasible);
        assert!(feasible < lossy);
    }

    #[test]
    fn grad_g_hat_matches_finite_difference_through_surrogate() {
        // Fake linear surrogate: Z = 80 + 2 x0, L = -0.3 - 0.1 x1, NEXT = 0.
        let predict = |x: &[f64]| -> [f64; 3] { [80.0 + 2.0 * x[0], -0.3 - 0.1 * x[1], 0.0] };
        let jac = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, -0.1], vec![0.0, 0.0]]);
        let obj = t1_objective();
        let x = vec![2.1, 0.7];
        let grad = obj.grad_g_hat(&predict(&x), &jac, &x);
        for c in 0..2 {
            let h = 1e-6;
            let mut hi = x.clone();
            let mut lo = x.clone();
            hi[c] += h;
            lo[c] -= h;
            let fd = (obj.g_hat(&predict(&hi), &hi) - obj.g_hat(&predict(&lo), &lo)) / (2.0 * h);
            assert!((grad[c] - fd).abs() < 1e-5, "dim {c}: {} vs {fd}", grad[c]);
        }
    }

    #[test]
    fn all_satisfied_checks_everything() {
        let mut obj = t1_objective();
        obj.input_constraints
            .push(InputConstraint::new(vec![(0, 1.0)], 3.0, "x0<=3"));
        obj.weights.ic.push(1.0);
        assert!(obj.all_satisfied(&[85.2, -0.4, 0.0], &[2.0]));
        assert!(
            !obj.all_satisfied(&[87.0, -0.4, 0.0], &[2.0]),
            "Z out of band"
        );
        assert!(
            !obj.all_satisfied(&[85.2, -0.4, 0.0], &[4.0]),
            "IC violated"
        );
    }

    #[test]
    fn boundary_penalty_is_half_ish() {
        let c = z_band();
        let b = c.boundary_penalty(1.0);
        assert!(b > 0.5 && b < 0.7, "C_max = {b}");
    }
}
