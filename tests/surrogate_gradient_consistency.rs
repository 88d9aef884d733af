//! Cross-crate consistency: the surrogates' analytic input gradients must
//! agree with finite differences of their own predictions, the fused
//! value-and-gradient call must agree with `predict` and the full Jacobian,
//! and the objective gradient must descend `g_hat` — the contract the
//! local-exploration stage rests on.

use isop::data::generate_dataset;
use isop::prelude::*;
use isop_em::simulator::AnalyticalSolver;
use isop_ml::linalg::Matrix;
use isop_ml::models::{Cnn1d, Cnn1dConfig, Mlp, MlpConfig, XgbRegressor};

fn dataset(n: usize, seed: u64) -> isop_ml::dataset::Dataset {
    generate_dataset(&isop::spaces::s1(), n, &AnalyticalSolver::new(), seed).expect("dataset")
}

fn check_jacobian(surrogate: &dyn Surrogate, x: &[f64]) {
    let jac = surrogate
        .jacobian(x)
        .expect("differentiable")
        .expect("fitted");
    assert_eq!((jac.rows(), jac.cols()), (3, x.len()));
    let h = 1e-5;
    for c in [0usize, 5, 10, 14] {
        let mut hi = x.to_vec();
        let mut lo = x.to_vec();
        hi[c] += h;
        lo[c] -= h;
        let ph = surrogate.predict(&hi).expect("ok");
        let pl = surrogate.predict(&lo).expect("ok");
        for r in 0..3 {
            let fd = (ph[r] - pl[r]) / (2.0 * h);
            let an = jac[(r, c)];
            assert!(
                (fd - an).abs() <= 1e-3 * (1.0 + fd.abs().max(an.abs())),
                "metric {r} / param {c}: analytic {an} vs fd {fd}"
            );
        }
    }
}

/// The fused call the gradient stage makes at `x`, for the T4 objective
/// (FoM `|L| + 2 |NEXT|` plus the Z band, so every metric row carries
/// cotangent):
/// - its metrics equal `predict` bit for bit;
/// - its gradient equals `dg_dmetrics(m) · J` to 1e-9 of the largest entry;
/// - plus `add_input_grad`, it matches a central difference of `g_hat`.
fn check_value_and_grad(surrogate: &dyn Surrogate, x: &[f64]) {
    let objective = isop::tasks::objective_for(TaskId::T4, vec![]);
    let dg_dm = |m: &[f64; 3]| objective.dg_dmetrics(m);
    let (metrics, grad) = surrogate
        .value_and_grad(x, &dg_dm)
        .expect("differentiable")
        .expect("fitted");
    let predicted = surrogate.predict(x).expect("ok");
    assert_eq!(metrics.map(f64::to_bits), predicted.map(f64::to_bits));

    let jac = surrogate
        .jacobian(x)
        .expect("differentiable")
        .expect("fitted");
    let contracted = jac.vecmat(&objective.dg_dmetrics(&predicted));
    let scale = contracted.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
    assert!(scale > 0.0, "degenerate gradient");
    for (c, (a, b)) in grad.iter().zip(&contracted).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * scale,
            "param {c}: fused {a} vs dm·J {b}"
        );
    }

    let mut full = grad;
    objective.add_input_grad(x, &mut full);
    let g_hat = |x: &[f64]| objective.g_hat(&surrogate.predict(x).expect("ok"), x);
    let h = 1e-5;
    for c in [0usize, 5, 10, 14] {
        let mut hi = x.to_vec();
        let mut lo = x.to_vec();
        hi[c] += h;
        lo[c] -= h;
        let fd = (g_hat(&hi) - g_hat(&lo)) / (2.0 * h);
        assert!(
            (fd - full[c]).abs() <= 1e-3 * (1.0 + fd.abs().max(full[c].abs())),
            "param {c}: analytic {} vs fd {fd}",
            full[c]
        );
    }
}

#[test]
fn mlp_surrogate_jacobian_consistent() {
    let data = dataset(600, 3);
    let s = NeuralSurrogate::fit(
        Mlp::new(MlpConfig {
            hidden: vec![32, 32],
            epochs: 20,
            dropout: 0.0,
            ..MlpConfig::default()
        }),
        &data,
    )
    .expect("trains");
    for row in [0, 100] {
        check_jacobian(&s, data.x.row(row));
        check_value_and_grad(&s, data.x.row(row));
    }
}

#[test]
fn cnn_surrogate_jacobian_consistent() {
    let data = dataset(400, 4);
    let s = NeuralSurrogate::fit(
        Cnn1d::new(Cnn1dConfig {
            expand: 64,
            channels: 8,
            conv_channels: 8,
            head: 24,
            epochs: 15,
            dropout: 0.0,
            ..Cnn1dConfig::default()
        }),
        &data,
    )
    .expect("trains");
    check_jacobian(&s, data.x.row(0));
    for row in [0, 100] {
        check_value_and_grad(&s, data.x.row(row));
    }
}

#[test]
fn mlp_xgb_surrogate_has_no_value_and_grad() {
    let data = dataset(200, 5);
    let s = MlpXgbSurrogate::fit(
        Mlp::new(MlpConfig {
            hidden: vec![16],
            epochs: 5,
            ..MlpConfig::default()
        }),
        XgbRegressor::new(10, 0.2, 3, 1.0, 0.0),
        &data,
    )
    .expect("trains");
    assert!(s.value_and_grad(data.x.row(0), &|m| *m).is_none());
}

/// Following `-grad_g_hat` for a few small steps must not increase `g_hat`
/// (descent property), for the oracle surrogate on T1.
#[test]
fn objective_gradient_descends_g_hat() {
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let objective = isop::tasks::objective_for(TaskId::T1, vec![]);
    let space = isop::spaces::s1();

    let start: Vec<f64> = isop::manual::ISOP_T1_S1_VECTOR.to_vec();
    let mut x = start;
    // Perturb off the optimum so there is room to descend.
    x[0] = 4.0;
    x[5] = 7.0;
    let eval = |x: &[f64]| {
        let m = surrogate.predict(x).expect("valid");
        objective.g_hat(&m, x)
    };
    let mut g_prev = eval(&x);
    let bounds = space.bounds();
    for _ in 0..8 {
        let m = surrogate.predict(&x).expect("ok");
        let jac: Matrix = surrogate.jacobian(&x).expect("fd").expect("ok");
        let grad = objective.grad_g_hat(&m, &jac, &x);
        // Normalized small step.
        let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1e-12);
        for ((xi, g), (lo, hi)) in x.iter_mut().zip(&grad).zip(&bounds) {
            *xi = (*xi - 0.02 * (hi - lo) * g / norm * (hi - lo).signum()).clamp(*lo, *hi);
        }
        let g_now = eval(&x);
        assert!(
            g_now <= g_prev + 5e-3,
            "gradient step increased g_hat: {g_prev} -> {g_now}"
        );
        g_prev = g_now;
    }
}
