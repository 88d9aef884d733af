//! Lasso regression by cyclic coordinate descent with soft-thresholding.
//!
//! This is the polynomial-sparse-recovery (PSR) workhorse inside Harmonica:
//! given parity features of the sampled bitstrings, the L1 penalty recovers
//! the few Fourier coefficients that explain the objective (Stobbe & Krause,
//! AISTATS'12; Hazan et al., ICLR'18).

/// Result of a Lasso fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LassoFit {
    /// Coefficients, one per feature column.
    pub coefficients: Vec<f64>,
    /// Intercept term.
    pub intercept: f64,
    /// Iterations used.
    pub iterations: usize,
}

impl LassoFit {
    /// Indices of the `k` largest-magnitude nonzero coefficients, sorted by
    /// magnitude descending. NaN coefficients rank after every finite one
    /// (same [`nan_last`](crate::order::nan_last) total order as the rest
    /// of the ranking paths) instead of panicking the comparator.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.coefficients.len())
            .filter(|&i| self.coefficients[i] != 0.0)
            .collect();
        // Ascending on -|c| is descending on |c|; -|NaN| is NaN and lands
        // last under the total order.
        idx.sort_by(|&a, &b| {
            crate::order::nan_last(-self.coefficients[a].abs(), -self.coefficients[b].abs())
        });
        idx.truncate(k);
        idx
    }
}

/// Fits `min ||y - X w - b||^2 / (2n) + lambda ||w||_1` by cyclic coordinate
/// descent.
///
/// `x` is row-major `n x d`. Columns are used as-is (parity features are
/// already `{-1, +1}`-normalized). Converges when the largest coefficient
/// update falls below `tol`.
///
/// # Panics
///
/// Panics if `x.len() != n * d`, `y.len() != n`, or `n == 0`.
pub fn lasso_coordinate_descent(
    x: &[f64],
    y: &[f64],
    n: usize,
    d: usize,
    lambda: f64,
    max_iter: usize,
    tol: f64,
) -> LassoFit {
    assert_eq!(x.len(), n * d, "feature matrix shape mismatch");
    let mut cols = vec![0.0f64; n * d];
    for row in 0..n {
        for j in 0..d {
            cols[j * n + row] = x[row * d + j];
        }
    }
    lasso_coordinate_descent_traced(
        &cols,
        y,
        n,
        d,
        lambda,
        max_iter,
        tol,
        &isop_telemetry::Telemetry::disabled(),
    )
}

/// [`lasso_coordinate_descent`] on a **column-major** feature matrix
/// (column `j` is `cols[j * n..(j + 1) * n]`), recording a
/// `harmonica.lasso` span and a
/// [`Counter::HarmonicaLassoSolves`](isop_telemetry::Counter) tick on
/// `telemetry` — the PSR accounting surface the run report aggregates.
/// Each coordinate update streams one contiguous column; Harmonica builds
/// its features in this layout, so no second `n x d` copy is made.
///
/// # Panics
///
/// Panics if `cols.len() != n * d`, `y.len() != n`, or `n == 0`.
#[allow(clippy::too_many_arguments)]
pub fn lasso_coordinate_descent_traced(
    cols: &[f64],
    y: &[f64],
    n: usize,
    d: usize,
    lambda: f64,
    max_iter: usize,
    tol: f64,
    telemetry: &isop_telemetry::Telemetry,
) -> LassoFit {
    let _span = isop_telemetry::span!(telemetry, "harmonica.lasso");
    telemetry.incr(isop_telemetry::Counter::HarmonicaLassoSolves);
    assert_eq!(cols.len(), n * d, "feature matrix shape mismatch");
    assert_eq!(y.len(), n, "target length mismatch");
    assert!(n > 0, "need at least one sample");

    // Precompute the column self-inner-products: z_j = <x_j, x_j> / n.
    // Row accumulation order matches the update loops below, so the same
    // value falls out whichever layout computed it.
    let mut col_norm = vec![0.0f64; d];
    for (j, z) in col_norm.iter_mut().enumerate() {
        let col = &cols[j * n..(j + 1) * n];
        *z = col.iter().map(|v| v * v).sum::<f64>() / n as f64;
    }

    let mut w = vec![0.0f64; d];
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let mut intercept = y_mean;

    // Residual r_i = y_i - intercept - sum_j x_ij w_j.
    let mut resid: Vec<f64> = y.iter().map(|v| v - intercept).collect();

    // Active-set cycling: after one full sweep, restrict sweeps to the
    // coordinates currently in the support (w_j != 0). When an active-only
    // sweep stagnates, run a full sweep to let new coordinates enter; the
    // solve only converges when a *full* sweep stagnates, so the optimality
    // conditions are checked over every coordinate.
    let mut iterations = 0;
    let mut sweep_all = true;
    for iter in 0..max_iter {
        iterations = iter + 1;
        let full = sweep_all;
        let mut max_delta = 0.0f64;
        for j in 0..d {
            if col_norm[j] == 0.0 || (!full && w[j] == 0.0) {
                continue;
            }
            let col = &cols[j * n..(j + 1) * n];
            // rho = (1/n) * sum_i x_ij (r_i + x_ij w_j)
            let wj = w[j];
            let mut rho = 0.0;
            for (xij, r) in col.iter().zip(resid.iter()) {
                rho += xij * (r + xij * wj);
            }
            rho /= n as f64;
            let w_new = soft_threshold(rho, lambda) / col_norm[j];
            let delta = w_new - wj;
            if delta != 0.0 {
                for (xij, r) in col.iter().zip(resid.iter_mut()) {
                    *r -= xij * delta;
                }
                w[j] = w_new;
                max_delta = max_delta.max(delta.abs());
            }
        }
        // Refresh intercept to the residual mean.
        let r_mean = resid.iter().sum::<f64>() / n as f64;
        if r_mean.abs() > 0.0 {
            intercept += r_mean;
            for r in &mut resid {
                *r -= r_mean;
            }
            max_delta = max_delta.max(r_mean.abs());
        }
        if full {
            if max_delta < tol {
                break;
            }
            sweep_all = false;
        } else if max_delta < tol {
            sweep_all = true;
        }
    }

    LassoFit {
        coefficients: w,
        intercept,
        iterations,
    }
}

#[inline]
fn soft_threshold(v: f64, lambda: f64) -> f64 {
    if v > lambda {
        v - lambda
    } else if v < -lambda {
        v + lambda
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Random {-1, +1} design matrix.
    fn sign_matrix(n: usize, d: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn soft_threshold_basics() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }

    #[test]
    fn recovers_sparse_signal() {
        // y depends on columns 3 and 17 only; Lasso must find exactly those.
        let (n, d) = (120, 40);
        let x = sign_matrix(n, d, 0);
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 * x[i * d + 3] - 1.5 * x[i * d + 17] + 0.7)
            .collect();
        let fit = lasso_coordinate_descent(&x, &y, n, d, 0.05, 500, 1e-8);
        let top = fit.top_k(2);
        assert_eq!(
            {
                let mut t = top.clone();
                t.sort_unstable();
                t
            },
            vec![3, 17],
            "coefficients: {:?}",
            fit.top_k(5)
        );
        assert!((fit.coefficients[3] - 2.0).abs() < 0.2);
        assert!((fit.coefficients[17] + 1.5).abs() < 0.2);
        assert!((fit.intercept - 0.7).abs() < 0.2);
    }

    #[test]
    fn heavy_lambda_zeroes_everything() {
        let (n, d) = (50, 10);
        let x = sign_matrix(n, d, 1);
        let y: Vec<f64> = (0..n).map(|i| x[i * d] * 0.1).collect();
        let fit = lasso_coordinate_descent(&x, &y, n, d, 10.0, 200, 1e-8);
        assert!(fit.coefficients.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn zero_lambda_interpolates_well() {
        let (n, d) = (200, 5);
        let x = sign_matrix(n, d, 2);
        let y: Vec<f64> = (0..n)
            .map(|i| (0..d).map(|j| (j as f64 + 1.0) * x[i * d + j]).sum())
            .collect();
        let fit = lasso_coordinate_descent(&x, &y, n, d, 0.0, 2000, 1e-12);
        for j in 0..d {
            assert!(
                (fit.coefficients[j] - (j as f64 + 1.0)).abs() < 1e-6,
                "w[{j}] = {}",
                fit.coefficients[j]
            );
        }
    }

    #[test]
    fn noise_robustness() {
        let (n, d) = (300, 60);
        let x = sign_matrix(n, d, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let y: Vec<f64> = (0..n)
            .map(|i| 3.0 * x[i * d + 7] + 0.1 * (rng.gen::<f64>() - 0.5))
            .collect();
        let fit = lasso_coordinate_descent(&x, &y, n, d, 0.08, 500, 1e-8);
        assert_eq!(fit.top_k(1), vec![7]);
    }

    #[test]
    fn traced_fit_matches_untraced_and_counts_solves() {
        use isop_telemetry::{Counter, Telemetry};
        let (n, d) = (60, 8);
        let x = sign_matrix(n, d, 5);
        let y: Vec<f64> = (0..n).map(|i| 1.5 * x[i * d + 2]).collect();
        let plain = lasso_coordinate_descent(&x, &y, n, d, 0.05, 200, 1e-8);
        let cols: Vec<f64> = (0..d)
            .flat_map(|j| (0..n).map(move |i| (i, j)))
            .map(|(i, j)| x[i * d + j])
            .collect();
        let tele = Telemetry::enabled();
        let traced = lasso_coordinate_descent_traced(&cols, &y, n, d, 0.05, 200, 1e-8, &tele);
        assert_eq!(plain, traced, "tracing must not change the fit");
        assert_eq!(tele.counter(Counter::HarmonicaLassoSolves), 1);
        assert_eq!(
            tele.run_report()
                .span("harmonica.lasso")
                .expect("span")
                .count,
            1
        );
    }

    #[test]
    fn top_k_orders_by_magnitude() {
        let fit = LassoFit {
            coefficients: vec![0.1, -3.0, 0.0, 2.0],
            intercept: 0.0,
            iterations: 1,
        };
        assert_eq!(fit.top_k(2), vec![1, 3]);
        assert_eq!(fit.top_k(10), vec![1, 3, 0]);
    }

    /// The seed code sorted with `partial_cmp(..).expect("finite
    /// coefficients")` and panicked on any NaN coefficient (a divergent
    /// solve, e.g. NaN targets, produces them). NaNs must rank last.
    #[test]
    fn top_k_ranks_nan_coefficients_last_without_panicking() {
        let fit = LassoFit {
            coefficients: vec![f64::NAN, 2.0, -5.0, 0.0, f64::NAN],
            intercept: 0.0,
            iterations: 1,
        };
        assert_eq!(fit.top_k(2), vec![2, 1]);
        let all = fit.top_k(10);
        assert_eq!(&all[..2], &[2, 1]);
        assert_eq!(all.len(), 4, "NaN coefficients stay eligible, rank last");
        assert!(fit.coefficients[all[2]].is_nan());
        assert!(fit.coefficients[all[3]].is_nan());

        // End-to-end: a fit against NaN targets must not panic top_k.
        let (n, dd) = (30, 6);
        let x = sign_matrix(n, dd, 9);
        let y = vec![f64::NAN; n];
        let fit = lasso_coordinate_descent(&x, &y, n, dd, 0.05, 50, 1e-8);
        let _ = fit.top_k(3);
    }
}
