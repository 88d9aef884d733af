//! Integration tests of the Table IV/V comparison protocol: budget matching,
//! sample accounting, and the relative behaviour of ISOP+ vs SA vs BO on a
//! shared surrogate.

use isop::experiment::{ExperimentContext, MatchMode, TrialStats};
use isop::prelude::*;
use isop_em::simulator::AnalyticalSolver;

fn context<'a>(
    space: &'a isop::params::ParamSpace,
    surrogate: &'a OracleSurrogate<AnalyticalSolver>,
    simulator: &'a AnalyticalSolver,
) -> ExperimentContext<'a> {
    let mut cfg = IsopConfig::default();
    cfg.harmonica.stages = 2;
    cfg.harmonica.samples_per_stage = 120;
    cfg.gd_epochs = 20;
    ExperimentContext {
        space,
        surrogate,
        simulator,
        isop_config: cfg,
        n_trials: 2,
        seed: 77,
        telemetry: isop_telemetry::Telemetry::disabled(),
        eval_cache: isop::evalcache::EvalCache::disabled(),
    }
}

#[test]
fn sample_matched_sa_respects_budget() {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let simulator = AnalyticalSolver::new();
    let ctx = context(&space, &surrogate, &simulator);
    let objective = isop::tasks::objective_for(TaskId::T1, vec![]);
    let cell = ctx.run_isop(&objective);
    let (isop_results, avg_samples, avg_algo) =
        (cell.results, cell.avg_samples, cell.avg_algo_seconds);
    assert!(cell.degraded.is_empty(), "no faults injected here");
    assert!(!isop_results.is_empty());
    assert!(
        avg_samples > 100.0,
        "ISOP+ must observe samples: {avg_samples}"
    );

    let sa = ctx.run_sa(&objective, MatchMode::Samples, avg_samples, avg_algo);
    assert!(!sa.is_empty(), "SA must produce verified results");
    for r in &sa {
        // Valid-sample accounting: within ~1 of the target (the final
        // in-flight evaluation may overshoot by one).
        assert!(
            (r.samples_seen as f64) <= avg_samples + 2.0,
            "SA-2 overshot the sample budget: {} vs {avg_samples}",
            r.samples_seen
        );
    }
}

#[test]
fn runtime_matched_bo_observes_fewer_samples_than_isop() {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let simulator = AnalyticalSolver::new();
    let ctx = context(&space, &surrogate, &simulator);
    let objective = isop::tasks::objective_for(TaskId::T1, vec![]);
    let cell = ctx.run_isop(&objective);
    let (avg_samples, avg_algo) = (cell.avg_samples, cell.avg_algo_seconds);

    let bo = ctx.run_bo(
        &objective,
        MatchMode::Samples,
        avg_samples.min(120.0),
        avg_algo,
    );
    assert!(!bo.is_empty());
    for r in &bo {
        assert!(r.samples_seen <= 120 + 1);
        assert!(r.metrics[0].is_finite());
    }
}

#[test]
fn all_methods_verify_with_real_simulation() {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let simulator = AnalyticalSolver::new();
    let ctx = context(&space, &surrogate, &simulator);
    let objective = isop::tasks::objective_for(TaskId::T2, vec![]);
    let cell = ctx.run_isop(&objective);
    let (isop_results, s, a) = (cell.results, cell.avg_samples, cell.avg_algo_seconds);
    let sa = ctx.run_sa(&objective, MatchMode::Samples, s, a);
    let bo = ctx.run_bo(&objective, MatchMode::Samples, 100.0, a);

    for r in isop_results.iter().chain(&sa).chain(&bo) {
        // Verified metrics are physical.
        assert!(r.metrics[0] > 20.0 && r.metrics[0] < 300.0);
        assert!(r.metrics[1] < 0.0);
        // Runtime includes the accounted EM batch: up to three simulations
        // run in parallel and cost the wall-clock of a single run
        // (PAPER_EM_BATCH_SECONDS / 3 ~= 15.2 s per batch).
        assert!(
            r.runtime_seconds >= 15.0,
            "EM accounting missing: {}",
            r.runtime_seconds
        );
    }
}

#[test]
fn aggregation_matches_trial_data() {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let simulator = AnalyticalSolver::new();
    let ctx = context(&space, &surrogate, &simulator);
    let objective = isop::tasks::objective_for(TaskId::T1, vec![]);
    let results = ctx.run_isop(&objective).results;
    let stats = TrialStats::aggregate("ISOP+", &results, 85.0);
    assert_eq!(stats.trials, results.len());
    let manual_fom: f64 = results.iter().map(|r| r.fom).sum::<f64>() / results.len() as f64;
    assert!((stats.fom - manual_fom).abs() < 1e-12);
    assert!(stats.successes <= stats.trials);
}
