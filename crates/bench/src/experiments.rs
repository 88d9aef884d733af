//! Shared experiment drivers for the table-regenerating binaries.

use crate::{isop_config, BenchConfig};
use isop::evalcache::{EvalCache, SurrogateMemo};
use isop::experiment::{ExperimentContext, MatchMode, TrialStats};
use isop::objective::Objective;
use isop::params::ParamSpace;
use isop::pipeline::IsopConfig;
use isop::report::{fmt, fmt_mean_std, Table};
use isop::surrogate::Surrogate;
use isop::tasks::{objective_for, TaskId};
use isop_em::simulator::AnalyticalSolver;
use isop_telemetry::Telemetry;

/// One comparison cell: task x space, with stats for every method.
#[derive(Debug, Clone)]
pub struct ComparisonCell {
    /// Task id.
    pub task: TaskId,
    /// Space label (`"S1"` / `"S2"`).
    pub space: &'static str,
    /// Per-method statistics, ISOP+ last.
    pub rows: Vec<TrialStats>,
}

fn z_target(task: TaskId) -> f64 {
    match task {
        TaskId::T2 => 100.0,
        _ => 85.0,
    }
}

/// Runs the Table IV/V protocol for one (task, space) cell: ISOP+ first,
/// then SA-1/SA-2/BO-1/BO-2 matched to ISOP+'s runtime or sample count.
pub fn run_comparison_cell(
    cfg: &BenchConfig,
    surrogate: &dyn Surrogate,
    task: TaskId,
    space_label: &'static str,
    space: &ParamSpace,
    pipeline: IsopConfig,
) -> ComparisonCell {
    let simulator = AnalyticalSolver::new();
    let ctx = ExperimentContext {
        space,
        surrogate,
        simulator: &simulator,
        isop_config: pipeline,
        n_trials: cfg.trials,
        seed: 0x15_0b,
        telemetry: Telemetry::disabled(),
        // Fresh per cell: repeated ISOP+ trials within the cell reuse each
        // other's roll-out simulations (outcomes are identical either way).
        eval_cache: EvalCache::new(),
        surrogate_memo: SurrogateMemo::new(),
    };
    let objective: Objective = objective_for(task, vec![]);
    eprintln!(
        "[isop-bench] {task}/{space_label}: running ISOP+ x{}",
        cfg.trials
    );
    let isop_cell = ctx.run_isop(&objective);
    for (trial, resolution) in &isop_cell.degraded {
        eprintln!(
            "[isop-bench] {task}/{space_label}: trial {trial} roll-out degraded ({resolution})"
        );
    }
    let (isop_results, avg_samples, avg_algo) = (
        isop_cell.results,
        isop_cell.avg_samples,
        isop_cell.avg_algo_seconds,
    );

    let mut rows = Vec::new();
    for (label, runner) in [("SA-1", MatchMode::Runtime), ("SA-2", MatchMode::Samples)] {
        eprintln!("[isop-bench] {task}/{space_label}: running {label}");
        let results = ctx.run_sa(&objective, runner, avg_samples, avg_algo);
        if !results.is_empty() {
            rows.push(TrialStats::aggregate(label, &results, z_target(task)));
        }
    }
    for (label, runner) in [("BO-1", MatchMode::Runtime), ("BO-2", MatchMode::Samples)] {
        eprintln!("[isop-bench] {task}/{space_label}: running {label}");
        // BO-2 at full ISOP sample counts is prohibitively sequential (the
        // paper's BO-2 rows likewise stop at a few hundred); cap it.
        let (samples, algo) = match runner {
            MatchMode::Samples => (avg_samples.min(450.0), avg_algo),
            MatchMode::Runtime => (avg_samples, avg_algo),
        };
        let results = ctx.run_bo(&objective, runner, samples, algo);
        if !results.is_empty() {
            rows.push(TrialStats::aggregate(label, &results, z_target(task)));
        }
    }
    if !isop_results.is_empty() {
        rows.push(TrialStats::aggregate(
            "ISOP+",
            &isop_results,
            z_target(task),
        ));
    }
    ComparisonCell {
        task,
        space: space_label,
        rows,
    }
}

/// Renders comparison cells in the paper's Table IV/V layout.
pub fn render_comparison(cells: &[ComparisonCell], include_next: bool) -> Table {
    let mut header = vec![
        "Task/S".to_string(),
        "Method".to_string(),
        "Success".to_string(),
        "Ave.time(s)".to_string(),
        "Ave.samples".to_string(),
        "dZ mean/std".to_string(),
        "L mean/std".to_string(),
    ];
    if include_next {
        header.push("NEXT mean/std".to_string());
    }
    header.push("FoM".to_string());
    header.push("Impv.of ISOP+(%)".to_string());
    let mut table = Table::new(header);
    for cell in cells {
        let isop_fom = cell
            .rows
            .iter()
            .find(|r| r.method == "ISOP+")
            .map(|r| r.fom);
        for row in &cell.rows {
            let mut cells_out = vec![
                format!("{}/{}", cell.task, cell.space),
                row.method.clone(),
                format!("{}/{}", row.successes, row.trials),
                fmt(row.avg_runtime, 2),
                fmt(row.avg_samples, 0),
                fmt_mean_std(row.delta_z.mean, row.delta_z.std, 3),
                fmt_mean_std(row.l.mean, row.l.std, 3),
            ];
            if include_next {
                cells_out.push(fmt_mean_std(row.next.mean, row.next.std, 3));
            }
            cells_out.push(fmt(row.fom, 3));
            cells_out.push(match isop_fom {
                Some(f) if row.method != "ISOP+" => fmt(row.improvement_of(f), 1),
                _ => "-".to_string(),
            });
            table.push_row(cells_out);
        }
    }
    table
}

/// One ablation row (Tables VII/VIII): optimization technique x surrogate.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Cell label, e.g. `"T1/S1"`.
    pub cell: String,
    /// Optimization technique (`"H"` or `"H_GD"`).
    pub technique: &'static str,
    /// Surrogate name.
    pub model: String,
    /// Aggregated statistics.
    pub stats: TrialStats,
}

/// Runs one ablation variant over a (task, space) cell.
///
/// `telemetry` is attached to every ISOP+ trial; pass an enabled handle to
/// aggregate per-stage spans and counters across the cell (the runtime
/// figures read stage timings from the resulting
/// [`RunReport`](isop_telemetry::RunReport) instead of re-measuring), or
/// [`Telemetry::disabled()`] to record nothing.
///
/// `eval_cache` is shared across every trial of this variant; pass the
/// *same* handle to every variant of one (task, space) cell so ablations
/// reuse each other's accurate simulations (they all round to the same
/// handful of grid designs), or [`EvalCache::disabled()`] to re-simulate
/// everything. Outcomes are bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub fn run_ablation_variant(
    cfg: &BenchConfig,
    surrogate: &dyn Surrogate,
    technique: &'static str,
    task: TaskId,
    space_label: &str,
    space: &ParamSpace,
    telemetry: &Telemetry,
    eval_cache: &EvalCache,
) -> Option<AblationRow> {
    let simulator = AnalyticalSolver::new();
    let mut pipeline = isop_config();
    pipeline.use_gradient_descent = technique == "H_GD";
    if technique == "H" {
        // Without the gradient-descent stage the paper's H variants spend
        // their budget on additional global sampling (~25k vs ~16.7k
        // samples); mirror that 3:2 ratio here.
        pipeline.harmonica.samples_per_stage = pipeline.harmonica.samples_per_stage * 3 / 2;
    }
    let ctx = ExperimentContext {
        space,
        surrogate,
        simulator: &simulator,
        isop_config: pipeline,
        n_trials: cfg.trials,
        seed: 0xAB1A,
        telemetry: telemetry.clone(),
        eval_cache: eval_cache.clone(),
        surrogate_memo: SurrogateMemo::new(),
    };
    let objective = objective_for(task, vec![]);
    eprintln!(
        "[isop-bench] ablation {technique}+{} on {task}/{space_label}",
        surrogate.name()
    );
    let results = ctx.run_isop(&objective).results;
    if results.is_empty() {
        return None;
    }
    Some(AblationRow {
        cell: format!("{task}/{space_label}"),
        technique,
        model: surrogate.name(),
        stats: TrialStats::aggregate(
            format!("{technique}+{}", surrogate.name()),
            &results,
            z_target(task),
        ),
    })
}

/// Renders ablation rows in the Table VII/VIII layout.
pub fn render_ablation(rows: &[AblationRow], include_next: bool) -> Table {
    let mut header = vec![
        "Task/S".to_string(),
        "Technique".to_string(),
        "ML model".to_string(),
        "Ave.time(s)".to_string(),
        "Ave.samples".to_string(),
        "dZ mean/std".to_string(),
        "L mean/std".to_string(),
    ];
    if include_next {
        header.push("NEXT mean/std".to_string());
    }
    header.push("FoM".to_string());
    header.push("Impv.of ISOP+(%)".to_string());
    let mut table = Table::new(header);

    // Group rows by cell to compute the per-cell ISOP+ (H_GD) reference.
    let mut cells: Vec<&str> = rows.iter().map(|r| r.cell.as_str()).collect();
    cells.dedup();
    for cell in cells {
        let in_cell: Vec<&AblationRow> = rows.iter().filter(|r| r.cell == cell).collect();
        let reference = in_cell
            .iter()
            .find(|r| r.technique == "H_GD")
            .map(|r| r.stats.fom);
        for row in in_cell {
            let mut out = vec![
                row.cell.clone(),
                row.technique.to_string(),
                row.model.clone(),
                fmt(row.stats.avg_runtime, 2),
                fmt(row.stats.avg_samples, 0),
                fmt_mean_std(row.stats.delta_z.mean, row.stats.delta_z.std, 3),
                fmt_mean_std(row.stats.l.mean, row.stats.l.std, 3),
            ];
            if include_next {
                out.push(fmt_mean_std(row.stats.next.mean, row.stats.next.std, 3));
            }
            out.push(fmt(row.stats.fom, 3));
            out.push(match reference {
                Some(f) if row.technique != "H_GD" => {
                    fmt(100.0 * (row.stats.fom - f) / row.stats.fom, 1)
                }
                _ => "-".to_string(),
            });
            table.push_row(out);
        }
    }
    table
}
