//! Regenerates paper **Table VII**: ablation of ISOP+ against the DATE'23
//! ISOP configuration on T1/T2 — `H + MLP_XGB` (the original), `H + 1D-CNN`
//! (surrogate upgrade only), and `H_GD + 1D-CNN` (the full ISOP+).
//!
//! `H_GD + MLP_XGB` is unrunnable by construction: the XGBoost component is
//! piecewise-constant, so the surrogate exposes no input gradient — our
//! pipeline detects this and skips GD, which would silently turn it into
//! `H + MLP_XGB` (the same observation the paper makes).

use isop::tasks::TaskId;
use isop_bench::experiments::{render_ablation, run_ablation_variant, AblationRow};
use isop_bench::{
    cnn_surrogate, emit, mlp_xgb_surrogate, table_cells, training_dataset, BenchConfig,
};

fn main() {
    let cfg = BenchConfig::from_env();
    let data = training_dataset(&cfg);
    let cnn = cnn_surrogate(&cfg, &data).expect("CNN trains");
    let mlp_xgb = mlp_xgb_surrogate(&cfg, &data).expect("MLP_XGB trains");

    // One EM-result cache across every variant of every cell: the three
    // ablations of a task round to the same handful of grid designs, so
    // later variants replay earlier accurate simulations instead of
    // re-running them. The persistent sharded store (ISOP_CACHE_DIR)
    // carries the reuse across invocations and processes; when it cannot
    // be opened the cache lives in memory for this run. Outcomes are
    // bit-identical either way.
    let store = isop_bench::open_store(&cfg);
    let em_cache = match &store {
        Some(s) => isop::evalcache::EvalCache::with_store(std::sync::Arc::clone(s)),
        None => isop::evalcache::EvalCache::new(),
    };

    let mut rows: Vec<AblationRow> = Vec::new();
    for (task, label, space) in table_cells([TaskId::T1, TaskId::T2]) {
        for (technique, surrogate) in [
            ("H", &mlp_xgb as &dyn isop::surrogate::Surrogate),
            ("H", &cnn as &dyn isop::surrogate::Surrogate),
            ("H_GD", &cnn as &dyn isop::surrogate::Surrogate),
        ] {
            if let Some(row) = run_ablation_variant(
                &cfg,
                surrogate,
                technique,
                task,
                label,
                &space,
                &isop_telemetry::Telemetry::disabled(),
                &em_cache,
            ) {
                rows.push(row);
            }
        }
    }
    if let Err(e) = em_cache.persist() {
        eprintln!("[isop-bench] em-cache: store not flushed: {e}");
    }
    let table = render_ablation(&rows, false);
    emit(
        &cfg,
        "table7_ablation_t1_t2",
        "Table VII — ISOP ablation on T1/T2",
        &table,
    );

    let wins = rows
        .chunks(3)
        .filter(|c| c.len() == 3 && c[2].stats.fom <= c[0].stats.fom + 1e-9)
        .count();
    println!(
        "\nShape check: H_GD+1D-CNN (ISOP+) <= H+MLP_XGB (ISOP DATE'23) FoM in {wins}/{} cells.",
        rows.len() / 3
    );
}
