//! Extension experiment (beyond the paper's tables): component-wise ablation
//! of ISOP+'s design choices on the hardest task (T3, NEXT-constrained).
//!
//! Variants:
//! * `full`          — Harmonica + adaptive weights + Hyperband + GD
//! * `no-weights`    — adaptive weight adjustment disabled (Sec. III-G off)
//! * `no-hyperband`  — GD seeds taken from the best raw Harmonica samples
//! * `no-gd`         — global stage only (the DATE'23 `H` technique)
//! * `nothing`       — all three off: plain Harmonica + roll-out
//!
//! Uses the oracle surrogate so the comparison isolates the *algorithmic*
//! contribution of each component from surrogate error.

use isop::experiment::{ExperimentContext, TrialStats};
use isop::prelude::*;
use isop::report::{fmt, fmt_mean_std, Table};
use isop_bench::{emit, isop_config, BenchConfig};
use isop_em::simulator::AnalyticalSolver;

fn main() {
    let cfg = BenchConfig::from_env();
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let simulator = AnalyticalSolver::new();

    let variants: Vec<(&str, IsopConfig)> = vec![
        ("full", isop_config()),
        ("no-weights", {
            let mut c = isop_config();
            c.adapt_weights = false;
            c
        }),
        ("no-hyperband", {
            let mut c = isop_config();
            c.use_hyperband = false;
            c
        }),
        ("no-gd", {
            let mut c = isop_config();
            c.use_gradient_descent = false;
            c
        }),
        ("nothing", {
            let mut c = isop_config();
            c.adapt_weights = false;
            c.use_hyperband = false;
            c.use_gradient_descent = false;
            c
        }),
    ];

    let mut table = Table::new(vec![
        "Variant",
        "Success",
        "FoM",
        "dZ mean/std",
        "L mean/std",
        "NEXT mean/std",
        "Ave.samples",
    ]);
    let mut foms: Vec<(String, f64, f64)> = Vec::new();
    for (name, pipeline) in variants {
        eprintln!("[isop-bench] component ablation: {name}");
        let ctx = ExperimentContext {
            space: &space,
            surrogate: &surrogate,
            simulator: &simulator,
            isop_config: pipeline,
            n_trials: cfg.trials,
            seed: 0xC0DE,
            telemetry: isop_telemetry::Telemetry::disabled(),
            eval_cache: isop::evalcache::EvalCache::new(),
        };
        let objective = isop::tasks::objective_for(TaskId::T3, vec![]);
        let results = ctx.run_isop(&objective).results;
        if results.is_empty() {
            continue;
        }
        let stats = TrialStats::aggregate(name, &results, 85.0);
        table.push_row(vec![
            name.to_string(),
            format!("{}/{}", stats.successes, stats.trials),
            fmt(stats.fom, 3),
            fmt_mean_std(stats.delta_z.mean, stats.delta_z.std, 3),
            fmt_mean_std(stats.l.mean, stats.l.std, 3),
            fmt_mean_std(stats.next.mean, stats.next.std, 3),
            fmt(stats.avg_samples, 0),
        ]);
        foms.push((
            name.to_string(),
            stats.fom,
            stats.successes as f64 / stats.trials as f64,
        ));
    }
    emit(
        &cfg,
        "extra_component_ablation",
        "Extension — ISOP+ component ablation on T3/S1",
        &table,
    );

    if let (Some(full), Some(nothing)) = (
        foms.iter().find(|(n, _, _)| n == "full"),
        foms.iter().find(|(n, _, _)| n == "nothing"),
    ) {
        println!(
            "\nShape check: full FoM {:.3} (success {:.0}%) vs stripped {:.3} ({:.0}%).",
            full.1,
            100.0 * full.2,
            nothing.1,
            100.0 * nothing.2
        );
    }
}
