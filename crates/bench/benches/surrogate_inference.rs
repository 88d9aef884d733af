//! Micro-benchmark: per-model inference throughput — the mechanism behind
//! the paper's runtime gap between surrogate-driven search and EM
//! simulation, and between the MLP/XGB and 1D-CNN surrogates (Tables
//! VII/VIII runtime columns) — plus the 1D-CNN's single-row and 300-row
//! (one Harmonica stage) inference cost at the optimize benchmark's widths,
//! and the per-step cost of the gradient stage's fused value-and-gradient
//! call.

use criterion::{criterion_group, criterion_main, Criterion};
use isop::data::generate_dataset;
use isop::exec::{par_map_indexed, Parallelism};
use isop::surrogate::{NeuralSurrogate, Surrogate};
use isop::tasks::{objective_for, TaskId};
use isop_em::simulator::AnalyticalSolver;
use isop_ml::linalg::Matrix;
use isop_ml::models::{Cnn1d, Cnn1dConfig, Mlp, MlpConfig, XgbRegressor};
use isop_ml::Regressor;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let data =
        generate_dataset(&isop::spaces::s1(), 600, &AnalyticalSolver::new(), 1).expect("dataset");
    let probe = data.x.clone();

    let mut mlp = Mlp::new(MlpConfig {
        hidden: vec![96, 96, 48],
        epochs: 3,
        ..MlpConfig::default()
    });
    mlp.fit(&data).expect("mlp fits");

    let mut cnn = Cnn1d::new(Cnn1dConfig {
        epochs: 3,
        ..Cnn1dConfig::default()
    });
    cnn.fit(&data).expect("cnn fits");

    let mut xgb = XgbRegressor::new(60, 0.2, 6, 1.0, 0.0);
    xgb.fit(&data).expect("xgb fits");

    let mut g = c.benchmark_group("surrogate_inference_600rows");
    g.sample_size(20);
    g.bench_function("mlp", |b| {
        b.iter(|| mlp.predict(black_box(&probe)).expect("ok"))
    });
    g.bench_function("cnn1d", |b| {
        b.iter(|| cnn.predict(black_box(&probe)).expect("ok"))
    });
    g.bench_function("xgboost", |b| {
        b.iter(|| xgb.predict(black_box(&probe)).expect("ok"))
    });
    g.finish();

    c.bench_function("mlp_input_jacobian", |b| {
        use isop_ml::Differentiable;
        b.iter(|| mlp.input_jacobian(black_box(probe.row(0))).expect("ok"))
    });

    // One stage-2 Adam step's surrogate work: the fused value-and-gradient
    // call vs. the two-call sequence it replaced (predict, the full 3 x 15
    // Jacobian, then the dm · J contraction). The CNN runs at the
    // benchmark's optimize-cnn widths (expand 192, head 64).
    let mut cnn_wide = Cnn1d::new(Cnn1dConfig {
        expand: 192,
        channels: 8,
        conv_channels: 16,
        head: 64,
        epochs: 3,
        ..Cnn1dConfig::default()
    });
    cnn_wide.fit(&data).expect("cnn fits");

    // The 1D-CNN's inference kernel at the same widths: one row (a
    // Hyperband probe) and one 300-row batch (a Harmonica stage).
    let one_row = Matrix::from_rows(&[probe.row(0).to_vec()]);
    let stage_rows: Vec<Vec<f64>> = (0..300).map(|r| probe.row(r).to_vec()).collect();
    let stage = Matrix::from_rows(&stage_rows);
    let mut g = c.benchmark_group("cnn1d_inference_optimize_widths");
    g.sample_size(50);
    g.bench_function("single_row", |b| {
        b.iter(|| cnn_wide.predict(black_box(&one_row)).expect("ok"))
    });
    g.bench_function("batch_300_rows", |b| {
        b.iter(|| cnn_wide.predict(black_box(&stage)).expect("ok"))
    });
    g.finish();

    let cnn_s = NeuralSurrogate::new(cnn_wide);
    let mlp_s = NeuralSurrogate::new(mlp.clone());
    let objective = objective_for(TaskId::T4, vec![]);
    let dg_dm = |m: &[f64; 3]| objective.dg_dmetrics(m);
    let x = probe.row(0);
    let mut g = c.benchmark_group("surrogate_value_and_grad");
    g.sample_size(50);
    for (name, s) in [("cnn1d", &cnn_s as &dyn Surrogate), ("mlp", &mlp_s)] {
        g.bench_function(format!("{name}_value_and_grad"), |b| {
            b.iter(|| s.value_and_grad(black_box(x), &dg_dm))
        });
        g.bench_function(format!("{name}_predict_plus_jacobian"), |b| {
            b.iter(|| {
                let m = s.predict(black_box(x)).expect("ok");
                let jac = s
                    .jacobian(black_box(x))
                    .expect("differentiable")
                    .expect("ok");
                (m, jac.vecmat(&objective.dg_dmetrics(&m)))
            })
        });
    }
    g.finish();

    // Batched forward vs. row-at-a-time, threaded at the width given by the
    // THREADS env var (default 1) — the levers the pipeline's stage-3
    // roll-out pulls. Run with e.g. `THREADS=4 cargo bench` to compare.
    let threads = Parallelism::from_env().threads;
    let rows: Vec<Vec<f64>> = (0..probe.rows()).map(|r| probe.row(r).to_vec()).collect();
    let mut g = c.benchmark_group("surrogate_inference_parallel");
    g.sample_size(20);
    g.bench_function("mlp_batched_forward", |b| {
        b.iter(|| mlp.predict(black_box(&probe)).expect("ok"))
    });
    g.bench_function(format!("mlp_per_row_t{threads}"), |b| {
        b.iter(|| {
            par_map_indexed(threads, black_box(&rows), |_, row| {
                mlp.predict(&Matrix::from_rows(std::slice::from_ref(row)))
                    .expect("ok")
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
