//! First-order optimizers.
//!
//! [`Adam`] (Kingma & Ba, ICLR'15) is used twice in the reproduction: to
//! train the neural surrogates, and — exactly as the paper's local
//! exploration stage does — to refine *design parameters* by descending the
//! surrogate-evaluated objective.

use serde::{Deserialize, Serialize};

/// The Adam optimizer over a flat parameter vector.
///
/// ```
/// use isop_ml::optim::Adam;
///
/// // Minimize f(x) = (x - 3)^2.
/// let mut x = vec![0.0f64];
/// let mut opt = Adam::new(0.1, 1);
/// for _ in 0..500 {
///     let grad = [2.0 * (x[0] - 3.0)];
///     opt.step(&mut x, &grad);
/// }
/// assert!((x[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimizer for `n` parameters with learning rate `lr` and
    /// the canonical `beta1 = 0.9`, `beta2 = 0.999`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64, n: usize) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Overrides the learning rate (e.g. for decay schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the configured size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "param length mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad length mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut x = vec![5.0, -3.0];
        let mut opt = Adam::new(0.05, 2);
        for _ in 0..2000 {
            let g = [2.0 * x[0], 4.0 * x[1]];
            opt.step(&mut x, &g);
        }
        assert!(x[0].abs() < 1e-3 && x[1].abs() < 1e-3, "x = {x:?}");
    }

    #[test]
    fn converges_on_rosenbrock_ish() {
        // Minimize (1-x)^2 + 10 (y - x^2)^2 — a mildly ill-conditioned valley.
        let mut p = vec![-1.0, 1.0];
        let mut opt = Adam::new(0.02, 2);
        for _ in 0..8000 {
            let (x, y) = (p[0], p[1]);
            let g = [
                -2.0 * (1.0 - x) - 40.0 * x * (y - x * x),
                20.0 * (y - x * x),
            ];
            opt.step(&mut p, &g);
        }
        assert!(
            (p[0] - 1.0).abs() < 0.05 && (p[1] - 1.0).abs() < 0.1,
            "p = {p:?}"
        );
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's bias correction makes the very first step ~= lr * sign(g).
        let mut x = vec![0.0];
        let mut opt = Adam::new(0.1, 1);
        opt.step(&mut x, &[123.0]);
        assert!((x[0] + 0.1).abs() < 1e-6, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "param length mismatch")]
    fn wrong_length_panics() {
        let mut opt = Adam::new(0.1, 2);
        let mut x = vec![0.0];
        opt.step(&mut x, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Adam::new(0.0, 1);
    }
}
