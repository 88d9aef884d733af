//! Regenerates paper **Table IX**: the expert manual design versus
//! ISOP-generated designs, with and without the three expert input
//! constraints (`2 W_t + S_t <= 20`, `D_t <= 5 H_c`, `D_t <= 5 H_p`).
//!
//! Two layers of reproduction:
//!
//! 1. The **published design vectors** (the paper prints them in full) are
//!    re-simulated through our EM engine — a direct calibration check.
//! 2. Our own ISOP+ runs on `S_1` (no IC) and `S_1'` (with IC) regenerate
//!    fresh designs under the same protocol.

use isop::experiment::ExperimentContext;
use isop::manual;
use isop::report::{fmt, Table};
use isop::tasks::{objective_for, table_ix_input_constraints, TaskId};
use isop_bench::{cnn_surrogate, emit, isop_config, training_dataset, BenchConfig};
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_em::stackup::DiffStripline;

fn design_row(
    table: &mut Table,
    task: &str,
    method: &str,
    values: &[f64],
    fom: impl Fn(&[f64; 3]) -> f64,
) {
    let sim = AnalyticalSolver::new();
    let layer = DiffStripline::from_vector(values).expect("valid design");
    let r = sim.simulate(&layer).expect("simulates");
    let metrics = r.to_array();
    table.push_row(vec![
        task.to_string(),
        method.to_string(),
        fmt(values[0], 1),
        fmt(values[1], 1),
        fmt(values[2], 0),
        fmt(values[3], 2),
        fmt(values[4], 1),
        fmt(values[5], 1),
        fmt(values[6], 1),
        format!("{:.1e}", values[7]),
        fmt(values[8], 1),
        fmt(r.z_diff, 2),
        fmt(r.insertion_loss, 3),
        fmt(r.next, 2),
        fmt(fom(&metrics), 3),
    ]);
}

fn main() {
    let cfg = BenchConfig::from_env();
    let data = training_dataset(&cfg);
    let surrogate = cnn_surrogate(&cfg, &data).expect("surrogate trains");
    let simulator = AnalyticalSolver::new();

    let mut table = Table::new(vec![
        "Task", "Method", "W_t", "S_t", "D_t", "E_t", "H_t", "H_c", "H_p", "sigma", "R_t", "Z",
        "L", "NEXT", "FoM",
    ]);

    // Published designs re-simulated (calibration layer).
    let l_fom = |m: &[f64; 3]| m[1].abs();
    let t4_fom = |m: &[f64; 3]| m[1].abs() + 2.0 * m[2].abs();
    design_row(
        &mut table,
        "T1",
        "Manual (paper)",
        &manual::MANUAL_VECTOR,
        l_fom,
    );
    design_row(
        &mut table,
        "T1",
        "ISOP paper (S1/no IC)",
        &manual::ISOP_T1_S1_VECTOR,
        l_fom,
    );
    design_row(
        &mut table,
        "T1",
        "ISOP paper (S1'/IC)",
        &manual::ISOP_T1_S1P_VECTOR,
        l_fom,
    );
    design_row(
        &mut table,
        "T3",
        "ISOP paper (S1/no IC)",
        &manual::ISOP_T3_S1_VECTOR,
        l_fom,
    );
    design_row(
        &mut table,
        "T4",
        "ISOP paper (S1/no IC)",
        &manual::ISOP_T4_S1_VECTOR,
        t4_fom,
    );

    // Fresh ISOP+ runs (reproduction layer): one representative trial per
    // cell, per the paper's "we investigate one trial case".
    let ctx = |space| ExperimentContext {
        space,
        surrogate: &surrogate,
        simulator: &simulator,
        isop_config: isop_config(),
        n_trials: 1,
        seed: 0x7AB9,
        telemetry: isop_telemetry::Telemetry::disabled(),
        eval_cache: isop::evalcache::EvalCache::new(),
    };
    let s1 = isop::spaces::s1();
    let s1p = isop::spaces::s1_prime();
    for task in [TaskId::T1, TaskId::T3, TaskId::T4] {
        let fom: &dyn Fn(&[f64; 3]) -> f64 = if task == TaskId::T4 { &t4_fom } else { &l_fom };
        // Without input constraints on S1.
        let res = ctx(&s1).run_isop(&objective_for(task, vec![])).results;
        if let Some(r) = res.first() {
            design_row(
                &mut table,
                task.name(),
                "ISOP+ ours (S1/no IC)",
                &r.design,
                fom,
            );
        }
        // With input constraints on S1'.
        let res = ctx(&s1p)
            .run_isop(&objective_for(task, table_ix_input_constraints()))
            .results;
        if let Some(r) = res.first() {
            design_row(
                &mut table,
                task.name(),
                "ISOP+ ours (S1'/IC)",
                &r.design,
                fom,
            );
            // Report IC satisfaction explicitly.
            let ics = table_ix_input_constraints();
            let ok = ics.iter().all(|c| c.satisfied(&r.design));
            eprintln!(
                "[isop-bench] {task} (S1'/IC): input constraints {}",
                if ok { "satisfied" } else { "VIOLATED" }
            );
        }
    }

    emit(
        &cfg,
        "table9_manual_vs_isop",
        "Table IX — manual vs ISOP designs",
        &table,
    );
    println!(
        "\nPaper reference (manual): Z=85.69, L=-0.434, NEXT=-2.77; ISOP matches manual L with far lower NEXT."
    );
}
