//! Regenerates paper **Fig. 8**: bar-chart data of average runtime per
//! optimization technique / surrogate combination across T1–T4 — the
//! runtime companion of Fig. 7.
//!
//! The paper's claim: `H_GD + 1D-CNN` (ISOP+) is the fastest variant because
//! gradient descent needs far fewer surrogate samples than a longer
//! Harmonica run, despite the CNN being slower per inference than MLP/XGB.
//!
//! Stage timings come from the telemetry [`RunReport`] attached to each
//! variant's trials (spans `pipeline.global` / `pipeline.local` /
//! `pipeline.rollout`), not from ad-hoc stopwatches around the driver.

use isop::report::{fmt, Table};
use isop::tasks::TaskId;
use isop_bench::experiments::run_ablation_variant;
use isop_bench::{
    cnn_surrogate_with, emit, env_zoo, mlp_xgb_surrogate_with, training_dataset, BenchConfig,
};
use isop_telemetry::{RunReport, Telemetry};

fn main() {
    let cfg = BenchConfig::from_env();
    let data = training_dataset(&cfg);
    // Surrogate training goes through the data-parallel model zoo (THREADS
    // env var) with its own telemetry handle, so the runtime summary can
    // report training spans alongside the pipeline stages.
    let train_tele = Telemetry::enabled();
    let zoo = env_zoo().with_telemetry(train_tele.clone());
    let cnn = cnn_surrogate_with(&cfg, &data, &zoo).expect("CNN trains");
    let mlp_xgb = mlp_xgb_surrogate_with(&cfg, &data, &zoo).expect("MLP_XGB trains");
    let s1 = isop::spaces::s1();
    // Fig. 8 measures wall-clock, so each variant re-simulates everything:
    // a shared cache here would report roll-out spans that depend on run
    // order. Keep the cache disabled for honest per-variant timings.
    let em_cache = isop::evalcache::EvalCache::disabled();

    let mut table = Table::new(vec![
        "Task",
        "Variant",
        "Ave. runtime (s)",
        "Ave. samples",
        "Global (s)",
        "Local (s)",
        "Roll-out (s)",
    ]);
    type TaskBars = Vec<(String, f64, f64)>;
    let mut per_task: Vec<(TaskId, TaskBars)> = Vec::new();
    for task in TaskId::all() {
        let mut bars = Vec::new();
        for (technique, surrogate) in [
            ("H", &mlp_xgb as &dyn isop::surrogate::Surrogate),
            ("H", &cnn as &dyn isop::surrogate::Surrogate),
            ("H_GD", &cnn as &dyn isop::surrogate::Surrogate),
        ] {
            // One telemetry handle per variant: spans aggregate across the
            // cell's trials, so dividing by trial count gives per-trial
            // stage averages.
            let tele = Telemetry::enabled();
            if let Some(row) = run_ablation_variant(
                &cfg, surrogate, technique, task, "S1", &s1, &tele, &em_cache,
            ) {
                let report: RunReport = tele.run_report();
                let trials = row.stats.trials.max(1) as f64;
                let label = format!("{}+{}", row.technique, row.model);
                table.push_row(vec![
                    task.name().to_string(),
                    label.clone(),
                    fmt(row.stats.avg_runtime, 2),
                    fmt(row.stats.avg_samples, 0),
                    fmt(report.span_seconds("pipeline.global") / trials, 2),
                    fmt(report.span_seconds("pipeline.local") / trials, 2),
                    fmt(report.span_seconds("pipeline.rollout") / trials, 2),
                ]);
                bars.push((label, row.stats.avg_runtime, row.stats.avg_samples));
            }
        }
        per_task.push((task, bars));
    }
    emit(
        &cfg,
        "fig8_runtime_summary",
        "Fig. 8 — runtime by technique and surrogate",
        &table,
    );

    // Training-side spans (zero when every surrogate came from the disk
    // cache): the `ml.fit.*` seconds the zoo recorded, plus the thread
    // width they ran at.
    let train_report: RunReport = train_tele.run_report();
    println!(
        "\nSurrogate training at {} thread(s): 1D-CNN {:.1}s, MLP {:.1}s, XGB {:.1}s ({} train chunks)",
        zoo.context().parallelism.threads,
        train_report.span_seconds("ml.fit.cnn"),
        train_report.span_seconds("ml.fit.mlp"),
        train_report.span_seconds("ml.fit.xgb"),
        train_report.counter("train.chunks"),
    );

    // Shape check: the GD variant sees no more samples than the H variants
    // (the paper's ~16.7k vs ~25k sample gap).
    let mut holds = 0usize;
    let mut cells = 0usize;
    for (task, bars) in &per_task {
        if let (Some(gd), Some(h_cnn)) = (
            bars.iter().find(|(l, _, _)| l.starts_with("H_GD")),
            bars.iter().find(|(l, _, _)| l.starts_with("H+1D-CNN")),
        ) {
            cells += 1;
            if gd.2 <= h_cnn.2 + 1e-9 {
                holds += 1;
            }
            println!("{task}: samples H_GD {:.0} vs H {:.0}", gd.2, h_cnn.2);
        }
    }
    println!("\nShape check: H_GD uses <= samples of H in {holds}/{cells} tasks (paper: always).");
}
