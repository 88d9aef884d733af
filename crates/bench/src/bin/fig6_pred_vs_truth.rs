//! Regenerates paper **Fig. 6**: predicted-versus-ground-truth scatter data
//! for the DATE'23 surrogates (MLP on Z/L, XGBoost on NEXT) and the ISOP+
//! 1D-CNN, on the held-out test split.
//!
//! Emits the six scatter panels as CSV plus per-panel R^2 — the paper's
//! figure shows tight diagonals with the 1D-CNN tighter than MLP/XGB.

use isop::report::{fmt, Table};
use isop::surrogate::Surrogate;
use isop_bench::{cnn_surrogate, emit, mlp_xgb_surrogate, training_dataset, BenchConfig};
use isop_ml::metrics::r2;

fn main() {
    let cfg = BenchConfig::from_env();
    let data = training_dataset(&cfg);
    let (train, test) = data.train_test_split(0.2, 0x5EED);
    eprintln!("[isop-bench] fitting surrogates on {} samples", train.len());
    // The 80% split caches under its own key: the key fingerprints the
    // training data.
    let cnn = cnn_surrogate(&cfg, &train).expect("CNN trains");
    let mlp_xgb = mlp_xgb_surrogate(&cfg, &train).expect("MLP_XGB trains");

    // Scatter table: one row per test sample, truth and both predictions
    // for each metric.
    let mut table = Table::new(vec![
        "Z true",
        "Z mlp_xgb",
        "Z cnn",
        "L true",
        "L mlp_xgb",
        "L cnn",
        "NEXT true",
        "NEXT mlp_xgb",
        "NEXT cnn",
    ]);
    let n_points = test.len().min(1000);
    let mut truths: [Vec<f64>; 3] = Default::default();
    let mut pred_a: [Vec<f64>; 3] = Default::default();
    let mut pred_b: [Vec<f64>; 3] = Default::default();
    for r in 0..n_points {
        let x = test.x.row(r);
        let t = test.y.row(r);
        let a = mlp_xgb.predict(x).expect("predicts");
        let b = cnn.predict(x).expect("predicts");
        for m in 0..3 {
            truths[m].push(t[m]);
            pred_a[m].push(a[m]);
            pred_b[m].push(b[m]);
        }
        table.push_row(vec![
            fmt(t[0], 3),
            fmt(a[0], 3),
            fmt(b[0], 3),
            fmt(t[1], 4),
            fmt(a[1], 4),
            fmt(b[1], 4),
            fmt(t[2], 4),
            fmt(a[2], 4),
            fmt(b[2], 4),
        ]);
    }
    emit(
        &cfg,
        "fig6_pred_vs_truth",
        "Fig. 6 — predicted vs ground truth scatter data",
        &table,
    );

    let mut summary = Table::new(vec!["Panel", "Model", "R^2"]);
    let names = ["Z", "L", "NEXT"];
    for m in 0..3 {
        summary.push_row(vec![
            names[m].to_string(),
            "MLP_XGB".to_string(),
            fmt(r2(&truths[m], &pred_a[m]), 4),
        ]);
        summary.push_row(vec![
            names[m].to_string(),
            "1D-CNN".to_string(),
            fmt(r2(&truths[m], &pred_b[m]), 4),
        ]);
    }
    emit(&cfg, "fig6_r2_summary", "Fig. 6 — per-panel R^2", &summary);
    println!("\nShape check: all panels should show strong correlation (R^2 close to 1).");
}
