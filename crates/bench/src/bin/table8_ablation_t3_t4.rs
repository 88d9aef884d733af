//! Regenerates paper **Table VIII**: the ISOP ablation of Table VII on the
//! harder T3/T4 tasks (NEXT constraint / multi-objective FoM), where the
//! paper reports the biggest gains for the full `H_GD + 1D-CNN` pipeline.

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

    // Shared EM-result cache, exactly as in table7: variants of one task
    // reuse each other's accurate sims, and the persistent store
    // (ISOP_CACHE_DIR) shares them across the two ablation binaries.
    let store = isop_bench::open_store(&cfg);
    let em_cache = match &store {
        Some(s) => isop::evalcache::EvalCache::with_store(std::sync::Arc::clone(s)),
        None => isop::evalcache::EvalCache::new(),
    };

    let mut rows: Vec<AblationRow> = Vec::new();
    for (task, label, space) in table_cells([TaskId::T3, TaskId::T4]) {
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
    let table = render_ablation(&rows, true);
    emit(
        &cfg,
        "table8_ablation_t3_t4",
        "Table VIII — ISOP ablation on T3/T4",
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
