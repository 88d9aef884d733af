//! Regression evaluation metrics.
//!
//! The paper's Table VI uses MAE and MAPE for impedance and loss, and sMAPE
//! for crosstalk (which can be exactly zero, where MAPE degenerates).

/// Mean absolute error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mae(truth: &[f64], pred: &[f64]) -> f64 {
    check(truth, pred);
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64
}

/// Mean absolute percentage error, as a fraction (0.05 = 5%).
///
/// Samples with `|truth| < 1e-12` are skipped to avoid division blow-ups; if
/// every sample is skipped the result is `NaN` (prefer [`smape`] for targets
/// that may be zero).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape(truth: &[f64], pred: &[f64]) -> f64 {
    check(truth, pred);
    let mut total = 0.0;
    let mut n = 0usize;
    for (t, p) in truth.iter().zip(pred) {
        if t.abs() >= 1e-12 {
            total += ((t - p) / t).abs();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        total / n as f64
    }
}

/// Symmetric mean absolute percentage error, as a fraction in `[0, 2]`.
///
/// `smape = mean(2 |t - p| / (|t| + |p|))`, with exact-zero pairs contributing
/// zero error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn smape(truth: &[f64], pred: &[f64]) -> f64 {
    check(truth, pred);
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| {
            let denom = t.abs() + p.abs();
            if denom < 1e-12 {
                0.0
            } else {
                2.0 * (t - p).abs() / denom
            }
        })
        .sum::<f64>()
        / truth.len() as f64
}

/// Coefficient of determination R^2 (1 = perfect, 0 = mean predictor).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn r2(truth: &[f64], pred: &[f64]) -> f64 {
    check(truth, pred);
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p) * (t - p)).sum();
    if ss_tot < 1e-12 {
        if ss_res < 1e-12 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

fn check(truth: &[f64], pred: &[f64]) {
    assert_eq!(truth.len(), pred.len(), "metric length mismatch");
    assert!(!truth.is_empty(), "metrics need at least one sample");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(mae(&t, &t), 0.0);
        assert_eq!(mape(&t, &t), 0.0);
        assert_eq!(smape(&t, &t), 0.0);
        assert_eq!(r2(&t, &t), 1.0);
    }

    #[test]
    fn mae_known_value() {
        assert!((mae(&[1.0, 2.0], &[2.0, 4.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mape_known_value() {
        // errors: 50% and 10%.
        let v = mape(&[2.0, 10.0], &[3.0, 9.0]);
        assert!((v - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_truth() {
        let v = mape(&[0.0, 10.0], &[1.0, 11.0]);
        assert!((v - 0.1).abs() < 1e-12);
    }

    #[test]
    fn smape_handles_zeros() {
        assert_eq!(smape(&[0.0], &[0.0]), 0.0);
        // truth 0, pred 1: 2*1/(0+1) = 2 (max).
        assert!((smape(&[0.0], &[1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smape_bounded_by_two() {
        let v = smape(&[1.0, -5.0, 0.0], &[-1.0, 5.0, 3.0]);
        assert!(v <= 2.0 + 1e-12);
    }

    #[test]
    fn r2_of_mean_predictor_is_zero() {
        let t = [1.0, 2.0, 3.0, 4.0];
        let mean = [2.5; 4];
        assert!(r2(&t, &mean).abs() < 1e-12);
    }

    #[test]
    fn r2_penalizes_bad_fit() {
        let t = [1.0, 2.0, 3.0];
        let bad = [3.0, 2.0, 1.0];
        assert!(r2(&t, &bad) < 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mae(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_panics() {
        let _ = mae(&[], &[]);
    }
}
