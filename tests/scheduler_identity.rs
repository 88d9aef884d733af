//! Integration tests of the async roll-out scheduler's determinism
//! contract: batch composition is a pure function of design identity and
//! the logical tick clock, so candidates, both EM ledgers, and every
//! telemetry counter are bit-identical at any thread width — with faults
//! on; a fault-free roll-out charges exactly the pinned ledger of a
//! synchronous wave schedule on the same scenario; a warm-cache replay
//! occupies zero live batch slots; and a ragged final batch still charges a full
//! nominal while booking its empty slots as slack.

use isop::evalcache::EvalCache;
use isop::prelude::*;
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;

const SEED: u64 = 3;
const FAULT_SEED: u64 = 2;

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

fn run_with(
    simulator: &dyn EmSimulator,
    config: IsopConfig,
    telemetry: &Telemetry,
    cache: &EvalCache,
) -> isop::pipeline::IsopOutcome {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    IsopOptimizer::new(&space, &surrogate, simulator, config)
        .with_telemetry(telemetry.clone())
        .with_eval_cache(cache.clone())
        .run(
            isop::tasks::objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            SEED,
        )
}

/// With faults on, retry chains and top-ups flow through the batch stream
/// — and the whole thing must still be bit-identical at 1 vs 4 threads:
/// candidates, both ledgers, and every counter including the three
/// `em.sched.*` gauges.
#[test]
fn faulted_async_schedule_is_bit_identical_across_thread_widths() {
    let fault = FaultConfig {
        transient_rate: 0.35,
        permanent_rate: 0.30,
        seed: FAULT_SEED,
    };
    let run_at = |threads: usize| {
        let telemetry = Telemetry::enabled();
        let simulator = FaultInjector::new(
            AnalyticalSolver::new().with_telemetry(telemetry.clone()),
            fault,
        )
        .with_telemetry(telemetry.clone());
        let outcome = run_with(
            &simulator,
            smoke_config(threads),
            &telemetry,
            &EvalCache::disabled(),
        );
        (outcome, telemetry)
    };
    let (serial, serial_tele) = run_at(1);
    let (wide, wide_tele) = run_at(4);

    assert_eq!(serial.candidates, wide.candidates);
    assert_eq!(serial.resolution, wide.resolution);
    assert_eq!(serial.em_seconds.to_bits(), wide.em_seconds.to_bits());
    assert_eq!(
        serial.em_seconds_saved.to_bits(),
        wide.em_seconds_saved.to_bits()
    );
    for c in Counter::ALL {
        assert_eq!(
            serial_tele.counter(c),
            wide_tele.counter(c),
            "counter {} diverged between 1 and 4 threads",
            c.name()
        );
    }
    // The scenario exercised the scheduler for real: retry chains and
    // top-up draws re-entered the batch stream across multiple ticks.
    assert!(serial.em_retries > 0);
    assert!(serial.em_topped_up > 0);
    assert!(serial_tele.counter(Counter::EmSchedBatches) > 1);
}

/// What a synchronous wave schedule (every retry chain finishing inside
/// its wave, failed attempts billed at one nominal plus an exponential
/// backoff) delivered and charged on the fault-free smoke scenario,
/// measured with that schedule and pinned so the comparison needs no
/// second scheduler.
const SYNC_FAULT_FREE_CANDIDATES: usize = 3;
const SYNC_FAULT_FREE_EM_SECONDS: f64 = 15.166666666666666;
const SYNC_FAULT_FREE_BATCHES_CHARGED: u64 = 1;

/// At fault rate zero the batch stream degenerates to the synchronous
/// schedule: the same candidate count, a bit-identical charged ledger,
/// and the same charged batches (full batches, no surcharge on either
/// side).
#[test]
fn fault_free_async_matches_synchronous_schedule_bit_exactly() {
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let outcome = run_with(
        &simulator,
        smoke_config(2),
        &telemetry,
        &EvalCache::disabled(),
    );

    assert_eq!(outcome.candidates.len(), SYNC_FAULT_FREE_CANDIDATES);
    assert_eq!(
        outcome.em_seconds.to_bits(),
        SYNC_FAULT_FREE_EM_SECONDS.to_bits()
    );
    assert_eq!(
        telemetry.counter(Counter::EmBatchesCharged),
        SYNC_FAULT_FREE_BATCHES_CHARGED
    );
    assert!(telemetry.counter(Counter::EmSchedBatches) > 0);
}

/// A warm-cache replay delivers the whole roll-out without occupying a
/// single live batch slot: `em.sched.batches` stays flat, the charged
/// ledger stays at zero, and the elided batches land in the saved ledger
/// with `em.batches_charged` unchanged from the cold run.
#[test]
fn warm_cache_replay_occupies_zero_batch_slots() {
    let cache = EvalCache::new();
    let cold_tele = Telemetry::enabled();
    let cold_sim = AnalyticalSolver::new().with_telemetry(cold_tele.clone());
    let cold = run_with(&cold_sim, smoke_config(2), &cold_tele, &cache);

    let warm_tele = Telemetry::enabled();
    let warm_sim = AnalyticalSolver::new().with_telemetry(warm_tele.clone());
    let warm = run_with(&warm_sim, smoke_config(2), &warm_tele, &cache);

    assert_eq!(cold.candidates, warm.candidates);
    assert!(cold_tele.counter(Counter::EmSchedBatches) > 0);
    assert_eq!(
        warm_tele.counter(Counter::EmSchedBatches),
        0,
        "cache hits must not occupy live batch slots"
    );
    assert_eq!(warm_tele.counter(Counter::EmSchedSlackSlots), 0);
    assert_eq!(warm.em_seconds, 0.0);
    assert!(warm.em_seconds_saved > 0.0);
    assert_eq!(
        (warm.em_seconds + warm.em_seconds_saved).to_bits(),
        cold.em_seconds.to_bits(),
        "charged + saved must be invariant under the cache"
    );
    assert_eq!(
        cold_tele.counter(Counter::EmBatchesCharged),
        warm_tele.counter(Counter::EmBatchesCharged),
        "replay books the same logical batches, just into the saved ledger"
    );
}

/// Four candidates do not fit one batch: the stream charges two nominals
/// (one full batch, one ragged) and books the ragged batch's two empty
/// slots as slack.
#[test]
fn ragged_final_batch_charges_full_nominal_and_books_slack() {
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let config = IsopConfig {
        gd_candidates: 6,
        cand_num: 4,
        ..smoke_config(2)
    };
    let outcome = run_with(&simulator, config, &telemetry, &EvalCache::disabled());

    assert_eq!(
        outcome.candidates.len(),
        4,
        "expected a full 4-way roll-out"
    );
    let nominal = simulator.nominal_seconds();
    assert_eq!(
        outcome.em_seconds.to_bits(),
        (2.0 * nominal).to_bits(),
        "3 + 1 designs = two charged batches"
    );
    assert_eq!(telemetry.counter(Counter::EmSchedBatches), 2);
    assert_eq!(
        telemetry.counter(Counter::EmSchedSlackSlots),
        2,
        "the ragged batch ran with two empty slots"
    );
}
