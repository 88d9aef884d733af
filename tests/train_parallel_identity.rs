//! Bit-identity of the data-parallel training engine.
//!
//! The determinism contract (DESIGN.md §9): for every model in the zoo,
//! `fit_with` at `threads = 1` and `threads = N` must produce byte-for-byte
//! identical models — all RNG is drawn serially before parallel sections,
//! chunk boundaries depend only on the data size, and floating-point
//! partials are reduced in input order. These tests pin that contract per
//! model and then end-to-end through the pipeline.

use isop::data::generate_mixed_dataset;
use isop::exec::Parallelism;
use isop::prelude::*;
use isop_em::simulator::AnalyticalSolver;
use isop_hpo::budget::Budget;
use isop_ml::dataset::Dataset;
use isop_ml::linalg::Matrix;
use isop_ml::models::{
    Cnn1d, Cnn1dConfig, DecisionTree, GradientBoosting, Mlp, MlpConfig, RandomForest, TreeConfig,
    XgbRegressor,
};
use isop_ml::train::TrainContext;
use isop_ml::Regressor;
use isop_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic synthetic regression set with three outputs.
///
/// Half of the features are snapped to a coarse grid so tree splits see
/// plenty of tied values — the case where an order-sensitive split scan
/// would diverge first.
fn synth(rows: usize, seed: u64) -> Dataset {
    const D: usize = 6;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(rows);
    let mut ys = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = [0.0f64; D];
        for (c, v) in row.iter_mut().enumerate() {
            let raw = rng.gen::<f64>() * 2.0 - 1.0;
            *v = if c % 2 == 0 {
                (raw * 5.0).round() / 5.0
            } else {
                raw
            };
        }
        let s: f64 = row.iter().sum();
        let y0 = (2.0 * row[0]).sin() + row[1] * row[2] + 0.1 * s;
        let y1 = row[3].cos() - 0.5 * row[4] * row[4];
        let y2 = row[5] + 0.3 * (3.0 * row[0]).cos() * row[1];
        xs.push(row.to_vec());
        ys.push(vec![y0, y1, y2]);
    }
    Dataset::new(Matrix::from_rows(&xs), Matrix::from_rows(&ys)).expect("valid")
}

/// Fits twin models at 1 and `threads` workers and asserts the predictions
/// on the training inputs are exactly equal (`Matrix` equality is exact
/// `f64` comparison — no tolerance).
fn assert_bit_identical(
    name: &str,
    mut serial: Box<dyn Regressor>,
    mut wide: Box<dyn Regressor>,
    data: &Dataset,
    threads: usize,
) {
    serial
        .fit_with(data, &TrainContext::new(Parallelism::new(1)))
        .expect("serial fit");
    wide.fit_with(data, &TrainContext::new(Parallelism::new(threads)))
        .expect("parallel fit");
    let a = serial.predict(&data.x).expect("serial predict");
    let b = wide.predict(&data.x).expect("parallel predict");
    assert_eq!(
        a, b,
        "{name}: fit at {threads} threads diverged from the serial fit"
    );
}

#[test]
fn decision_tree_identical_across_widths() {
    let data = synth(1500, 1);
    let make = || Box::new(DecisionTree::new(TreeConfig::default(), 5));
    assert_bit_identical("DecisionTree", make(), make(), &data, 8);
}

#[test]
fn random_forest_identical_across_widths() {
    let data = synth(900, 2);
    let cfg = TreeConfig {
        max_depth: 8,
        ..TreeConfig::default()
    };
    let make = || Box::new(RandomForest::new(12, cfg, 3));
    assert_bit_identical("RandomForest", make(), make(), &data, 8);
    assert_bit_identical("RandomForest", make(), make(), &data, 4);
    // An odd width exercises uneven work distribution over the 12 trees.
    assert_bit_identical("RandomForest", make(), make(), &data, 5);
}

#[test]
fn gradient_boosting_identical_across_widths() {
    let data = synth(900, 3);
    let cfg = TreeConfig {
        max_depth: 3,
        ..TreeConfig::default()
    };
    let make = || Box::new(GradientBoosting::new(25, 0.15, cfg, 0x6272));
    assert_bit_identical("GradientBoosting", make(), make(), &data, 8);
}

#[test]
fn xgb_identical_across_widths() {
    let data = synth(900, 4);
    let make = || Box::new(XgbRegressor::new(30, 0.2, 4, 1.0, 0.0));
    assert_bit_identical("XGBoost", make(), make(), &data, 8);
}

#[test]
fn mlp_with_dropout_identical_across_widths() {
    let data = synth(400, 5);
    let make = || {
        Box::new(Mlp::new(MlpConfig {
            hidden: vec![32, 32],
            epochs: 10,
            batch_size: 64,
            dropout: 0.1,
            seed: 7,
            ..MlpConfig::default()
        }))
    };
    assert_bit_identical("Mlp", make(), make(), &data, 8);
    assert_bit_identical("Mlp", make(), make(), &data, 4);
    // Odd width: the 64-row batch splits into four 16-row chunks that do
    // not divide evenly over three workers.
    assert_bit_identical("Mlp", make(), make(), &data, 3);
}

#[test]
fn cnn_with_dropout_identical_across_widths() {
    let data = synth(240, 6);
    let make = || {
        Box::new(Cnn1d::new(Cnn1dConfig {
            expand: 64,
            channels: 8,
            conv_channels: 8,
            kernel: 3,
            head: 24,
            epochs: 5,
            batch_size: 32,
            dropout: 0.1,
            seed: 3,
            ..Cnn1dConfig::default()
        }))
    };
    assert_bit_identical("Cnn1d", make(), make(), &data, 8);
}

/// A kernel-5 CNN whose 28-row minibatch splits into chunks of 8, 8, 8
/// and 4 rows: the short tail chunk and every conv tap range go through
/// the data-parallel backward pass.
#[test]
fn cnn_kernel5_identical_across_widths() {
    let data = synth(200, 9);
    let make = || {
        Box::new(Cnn1d::new(Cnn1dConfig {
            expand: 48,
            channels: 4,
            conv_channels: 6,
            kernel: 5,
            head: 16,
            epochs: 4,
            batch_size: 28,
            dropout: 0.05,
            seed: 4,
            ..Cnn1dConfig::default()
        }))
    };
    assert_bit_identical("Cnn1d k=5", make(), make(), &data, 3);
}

/// `fit` (no context) must stay the exact serial path: a model trained via
/// the bare trait method equals one trained with an explicit 1-thread
/// context.
#[test]
fn bare_fit_matches_serial_context() {
    let data = synth(400, 8);
    let cfg = MlpConfig {
        hidden: vec![24, 24],
        epochs: 8,
        dropout: 0.1,
        seed: 11,
        ..MlpConfig::default()
    };
    let mut bare = Mlp::new(cfg.clone());
    bare.fit(&data).expect("fit");
    let mut ctx = Mlp::new(cfg);
    ctx.fit_with(&data, &TrainContext::serial()).expect("fit");
    assert_eq!(
        bare.predict(&data.x).expect("ok"),
        ctx.predict(&data.x).expect("ok"),
        "Regressor::fit must delegate to the serial context unchanged"
    );
}

/// End-to-end: a surrogate trained at 1 vs 4 threads drives the pipeline to
/// identical candidates and identical telemetry counters (`train.chunks`
/// included — chunk counts depend only on data size, never on width).
#[test]
fn pipeline_identical_when_surrogate_trains_parallel() {
    let sim = AnalyticalSolver::new();
    let data = generate_mixed_dataset(
        &isop::spaces::training_space(),
        &isop::spaces::s1(),
        1200,
        0.5,
        &sim,
        11,
    )
    .expect("dataset");
    let mlp = || {
        Mlp::new(MlpConfig {
            hidden: vec![32, 32],
            epochs: 10,
            batch_size: 64,
            dropout: 0.05,
            lr: 2e-3,
            ..MlpConfig::default()
        })
    };
    let mut cfg = IsopConfig::default();
    cfg.harmonica.stages = 2;
    cfg.harmonica.samples_per_stage = 120;
    cfg.gd_epochs = 20;
    cfg.gd_candidates = 4;

    let run = |threads: usize| {
        let tele = Telemetry::enabled();
        let zoo =
            isop::surrogate::ModelZoo::new(Parallelism::new(threads)).with_telemetry(tele.clone());
        let surrogate = zoo.fit_neural(mlp(), &data).expect("training converges");
        let space = isop::spaces::s1();
        let optimizer =
            IsopOptimizer::new(&space, &surrogate, &sim, cfg.clone()).with_telemetry(tele.clone());
        let outcome = optimizer.run(
            isop::tasks::objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            21,
        );
        (outcome.candidates, tele.run_report())
    };

    let (cand_serial, report_serial) = run(1);
    let (cand_par, report_par) = run(4);
    assert_eq!(
        cand_serial, cand_par,
        "pipeline candidates must not depend on training thread width"
    );
    assert_eq!(
        report_serial.counters, report_par.counters,
        "telemetry counters must not depend on training thread width"
    );
    assert!(
        report_par.counter("train.chunks") > 0,
        "the data-parallel engine must report chunk counts"
    );
}
