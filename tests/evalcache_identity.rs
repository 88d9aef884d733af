//! Integration tests of the evaluation-cache determinism contract: the
//! cache and memo only elide work whose result is already known exactly,
//! so toggling them — or changing the thread width with them enabled —
//! must not move a single bit of the `RunReport` counters or the final
//! FoM. The simulator and optimizer share one telemetry handle, exactly
//! as the CI bench gate wires them.

use isop::evalcache::{EvalCache, SurrogateMemo};
use isop::prelude::*;
use isop_em::simulator::AnalyticalSolver;
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;

const SEED: u64 = 3;

fn smoke_config(threads: usize) -> IsopConfig {
    IsopConfig {
        harmonica: HarmonicaConfig {
            stages: 2,
            samples_per_stage: 120,
            top_monomials: 6,
            bits_per_stage: 8,
            ..HarmonicaConfig::default()
        },
        hyperband: HyperbandConfig {
            max_resource: 3.0,
            eta: 3.0,
        },
        gd_candidates: 4,
        gd_epochs: 25,
        cand_num: 3,
        parallelism: Parallelism::new(threads),
        ..IsopConfig::default()
    }
}

/// Two seeded smoke runs sharing `cache`/`memo`, returning the aggregate
/// report and both outcomes.
fn run_pair(
    threads: usize,
    cache: &EvalCache,
    memo: &SurrogateMemo,
) -> (
    RunReport,
    isop::pipeline::IsopOutcome,
    isop::pipeline::IsopOutcome,
) {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let run = || {
        IsopOptimizer::new(&space, &surrogate, &simulator, smoke_config(threads))
            .with_telemetry(telemetry.clone())
            .with_eval_cache(cache.clone())
            .with_surrogate_memo(memo.clone())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SEED,
            )
    };
    let first = run();
    let second = run();
    (telemetry.run_report(), first, second)
}

/// Strips the counters whose values legitimately depend on the cache being
/// on (a disabled cache books every probe as a miss by design, and the
/// `em.sched.*` counters track *live* scheduler batches only — a warm
/// roll-out served from cache forms none, its elided batches landing in
/// the saved ledger via the replay pass instead).
fn non_cache_counters(report: &RunReport) -> Vec<(String, u64)> {
    report
        .counters
        .iter()
        .filter(|c| {
            !c.name.starts_with("em.cache.")
                && !c.name.starts_with("surrogate.memo")
                && !c.name.starts_with("em.sched.")
        })
        .map(|c| (c.name.clone(), c.value))
        .collect()
}

#[test]
fn cache_on_and_off_report_bit_identical_counters_and_fom() {
    let (off_report, off_first, off_second) =
        run_pair(2, &EvalCache::disabled(), &SurrogateMemo::disabled());
    let (on_report, on_first, on_second) = run_pair(2, &EvalCache::new(), &SurrogateMemo::new());

    // Every non-cache counter — including the simulator's own attempt /
    // success ticks, replayed on hits — is bit-identical.
    assert_eq!(
        non_cache_counters(&off_report),
        non_cache_counters(&on_report)
    );
    // The cache genuinely engaged on the warm run...
    assert!(on_report.counter("em.cache.hits") > 0);
    assert!(on_report.counter("surrogate.memo_hits") > 0);
    assert_eq!(off_report.counter("em.cache.hits"), 0);

    // ...while candidates, FoM, and the EM ledger invariant held.
    assert_eq!(off_first.candidates, on_first.candidates);
    assert_eq!(off_second.candidates, on_second.candidates);
    assert_eq!(off_first.candidates, off_second.candidates);
    let fom_off = off_second.best().expect("candidate").g_exact;
    let fom_on = on_second.best().expect("candidate").g_exact;
    assert_eq!(fom_off.to_bits(), fom_on.to_bits());
    assert_eq!(
        (on_report.em_seconds_charged + on_report.em_seconds_saved).to_bits(),
        off_report.em_seconds_charged.to_bits(),
        "charged + saved must equal the uncached charge exactly"
    );
    assert!(on_report.em_seconds_saved > 0.0);
    assert_eq!(off_report.em_seconds_saved, 0.0);
    // >= 20% of the EM wall-clock came from cache hits on this protocol
    // (the second roll-out is fully served from cache, so honest is 50%).
    assert!(
        on_report.em_seconds_saved
            >= 0.2 * (on_report.em_seconds_charged + on_report.em_seconds_saved)
    );
}

#[test]
fn cache_enabled_reports_are_bit_identical_across_thread_widths() {
    let (serial_report, serial_first, serial_second) =
        run_pair(1, &EvalCache::new(), &SurrogateMemo::new());
    let (parallel_report, parallel_first, parallel_second) =
        run_pair(4, &EvalCache::new(), &SurrogateMemo::new());

    // Full bitwise identity, cache counters included: probes happen in the
    // serial sections only, so hit/miss totals cannot depend on the width.
    assert_eq!(serial_report.counters, parallel_report.counters);
    assert_eq!(
        serial_report.em_seconds_charged.to_bits(),
        parallel_report.em_seconds_charged.to_bits()
    );
    assert_eq!(
        serial_report.em_seconds_saved.to_bits(),
        parallel_report.em_seconds_saved.to_bits()
    );
    assert_eq!(serial_first.candidates, parallel_first.candidates);
    assert_eq!(serial_second.candidates, parallel_second.candidates);
}

/// Cache-warm replay: the second run of a pair shares the [`EvalCache`]
/// and serves its accurate simulations from it. A hit returns the stored
/// result of the same deterministic simulation the cold run made, so the
/// warm run's candidates and FoM are bit-identical to the cold run's.
#[test]
fn cache_warm_replay_is_bit_identical() {
    let (report, cold, warm) = run_pair(1, &EvalCache::new(), &SurrogateMemo::disabled());

    assert!(report.counter("em.cache.hits") > 0, "warm run never hit");
    assert_eq!(cold.candidates, warm.candidates);
    let g_cold = cold.best().expect("candidate").g_exact;
    let g_warm = warm.best().expect("candidate").g_exact;
    assert_eq!(g_cold.to_bits(), g_warm.to_bits());
}
